"""The versebert benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload pretrain-tiny --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints every end-to-end metric, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Details of the
run (environment, sample counts, checks) go to ``.bench_out/``. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("pretrain-tiny", "pretrain-mid", "classify", "tokenize")
SETUP_SAMPLES = 3  # set-up time is the median over this many fresh processes
CHILD_SLACK_S = 120

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
}

# What each generic end-to-end metric means on each workload, under the name
# the workload's users know it by.
MEANING = {
    "pretrain-tiny": {"throughput_per_s": "train_seq_per_s", "latency_ms": "step_ms"},
    "pretrain-mid": {"throughput_per_s": "train_seq_per_s", "latency_ms": "step_ms"},
    "classify": {"throughput_per_s": "classify_seq_per_s", "latency_ms": "predict_ms"},
    "tokenize": {"throughput_per_s": "encode_lines_per_s", "latency_ms": "tokenizer_train_ms"},
}


def child_env() -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": src + (os.pathsep + path if path else ""),
        "OPENBLAS_NUM_THREADS": nproc,
        "OMP_NUM_THREADS": nproc,
        "MKL_NUM_THREADS": nproc,
    }


def launch(args, setup_only: bool = False) -> dict:
    """Run workloads.py in a fresh process and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=args.seconds + CHILD_SLACK_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env = child_env()
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def source_digest() -> str:
    """sha256 over the names and bytes of ``src/versebert/*.py``."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "versebert").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(args, result: dict, extra: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics, timings scaled to the reference host (see calib.py)."""
    f = calib.factor(result["calib"])
    setups = [r["setup_s"] / calib.factor(r["calib"]) for r in extra]
    setups += [s / f for s in result.get("setup_samples") or [result["setup_s"]]]
    lat = stats.summarize([x / f for x in result["latency_ms"]]) if result["latency_ms"] else {"n": 0, "p50": 0.0}
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "throughput_per_s": result["throughput_per_s"] * f,
        "latency_ms_p50": lat["p50"],
    }
    meaning = MEANING[args.workload]
    ops = result["ops"]
    counts = {
        "setup_s": f"n={len(setups)} set-ups",
        "peak_rss_mb": "n=1 process" + (" plus its predict child" if args.workload == "classify" else ""),
        "throughput_per_s": f"{meaning['throughput_per_s']}, n="
        + str(ops.get("evaluated", ops.get("encoded", ops["timed"]))),
        "latency_ms_p50": f"{meaning['latency_ms']}_p50, n={lat['n']} {ops['name']}s",
    }
    lines = [f"  {k:<18} {v:>12.4f} {END_TO_END[k]:<4} ({counts[k]})" for k, v in metrics.items()]
    for key, value in lat.items():
        if key not in ("n", "p50"):
            lines.append(f"  {'(info)':<18} {value:>12.4f} ms   ({meaning['latency_ms']}_{key}, n={lat['n']})")
    raw = stats.summarize(result["latency_ms"]) if result["latency_ms"] else {"p50": 0.0}
    lines.append(f"  {'(info)':<18} {f:>12.4f}      (host factor from the calibration kernel, "
                 f"n={len(result['calib'])}; unscaled: throughput {result['throughput_per_s']:.4f} 1/s, "
                 f"latency p50 {raw['p50']:.4f} ms)")
    attempted = max(1, result["attempted"])
    lines.append(f"  {'(info)':<18} {result['failed'] / attempted:>12.4f}      (failed_frac, n={attempted})")
    return metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="versebert benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "versebert" / "__init__.py").is_file():
        print(f"no versebert source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    extra = []
    if not args.trace and args.workload != "classify":
        extra = [launch(args, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    result = launch(args)
    checks = result["checks"]
    correct = result["failed"] == 0 and all(c["ok"] for c in checks)

    print(f"versebert benchmark: {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        layer = result.get("layer") or {"metrics": {}, "absent": [], "traced_ops": 0, "untraced_ops": 0}
        units = spans.per_layer_units()
        metrics = {k: {"value": layer["metrics"].get(k, 0.0), "unit": u} for k, u in units.items()}
        print(f"  per-layer metrics per {result['ops']['name']}, over {layer['traced_ops']} traced "
              f"and {layer['untraced_ops']} untraced ops")
        for k, m in metrics.items():
            if m["value"]:
                print(f"  {k:<44} {m['value']:>14.6g} {m['unit']}")
        if layer["absent"]:
            print("  absent (no such function; reported as 0): " + ", ".join(layer["absent"]))
    else:
        values, lines = end_to_end(args, result, extra)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print("\n".join(lines))
    for c in checks:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}" + (f": {c['detail']}" if c["detail"] else ""))

    env = environment()
    print("  env " + json.dumps(env, sort_keys=True))
    record = {"args": vars(args), "env": env, "result": result, "setup_processes": extra, "metrics": metrics}
    suffix = "trace" if args.trace else "e2e"
    with open(OUT / f"result-{args.workload}-{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
