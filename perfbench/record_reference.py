"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py [--seeds 64] [--workload NAME ...]

Run it from the root of a checkout, on the program whose outputs are the
reference; it rewrites ``perfbench/reference.json`` for seeds 0 .. seeds-1.
A seed without a recorded reference is still checked for finite losses,
determinism and agreement between predict and evaluate, but not against
these values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# Leading losses recorded per seed; the checks compare the overlap with a run.
REFERENCE_STEPS = {"pretrain-tiny": 8, "pretrain-mid": 4}


def record(workload: str, seed: int):
    if workload in REFERENCE_STEPS:
        lines, vocab, config, cfg = workloads.pretrain_inputs(workload, seed)
        return workloads.pretrain_losses(lines, vocab, config, cfg, REFERENCE_STEPS[workload])
    if workload == "classify":
        return workloads.classify_reference(seed)
    digests, _, _ = workloads.tokenize_round(*workloads.tokenize_inputs(seed))
    return digests


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=64)
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = p.parse_args()
    workloads.OUT.mkdir(exist_ok=True)
    path = HERE / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    for workload in args.workload or workloads.WORKLOADS:
        ref[workload] = {str(seed): record(workload, seed) for seed in range(args.seeds)}
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {args.seeds} seeds recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
