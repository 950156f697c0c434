"""Run the ``versebert`` command line, optionally with span tracing.

    python3 -u perfbench/predict_launcher.py [--trace-out SPANS.npz] predict ...

With ``--trace-out`` the wrappers of ``spans.py`` are installed before
``cli.main`` runs, and the spans are written to SPANS.npz when it returns.
"""

import os
import sys

from versebert import cli

import spans


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if trace_out is None:
        return cli.main(argv)
    tracer = spans.Tracer(f"predict-{os.getpid()}")
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
