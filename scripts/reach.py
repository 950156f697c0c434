"""Line reach: which statements of ``src/versebert`` the program runs.

    python3 scripts/reach.py

Runs a fixed set of program paths in one process, in a temporary directory,
under a standard-library line tracer (``sys.settrace``, and
``threading.settrace`` for AdamW's helper thread), started before the first
``versebert`` import so that module-level statements count:

- all eight CLI commands on a 300-verse synthetic corpus: ``synth`` for each
  kind of task; ``encode`` from a file and from stdin; ``pretrain`` at
  ``--dropout 0.1`` with weight decay, with learned positions from a
  ``--config`` file and at ``--mask-ratio 0``; a full ``finetune`` and three
  ``--head-only`` ones; ``evaluate``; ``predict`` on a checkpoint with two
  heads, with and without ``--task``;
- cheap bad inputs: a usage error, a corpus row and a stdin row that are
  empty, a word too long to segment, a verse that strips to nothing, an
  ``encode`` that fails half-way through its output file, a learning rate
  that makes the loss overflow, and a task no record of the corpus carries;
- two steps each of ``pretrain-tiny`` and ``pretrain-mid`` on the inputs of
  ``perfbench/workloads.pretrain_inputs``, and the ``tokenize`` workload's
  ``train_wordpiece`` and ``encode`` (``workloads.tokenize_round``).

It then lists every statement of ``src/versebert`` that no path executed and
no ``ALLOWED`` entry explains. Docstrings, ``global`` and ``raise``
statements are not counted. A compound statement (``if``, ``for``, ``def``,
...) is its header lines alone, and it ran when its header or anything in its
body did.

Each ``ALLOWED`` entry names a function by its qualified name, module first,
and a source fragment when only part of it is meant; it explains the
statements of that function (nested functions included) whose own source, or
an enclosing statement's header, holds the fragment. An entry that names no
statement, that explains no statement the run missed, or that explains a
simple statement the run executed is an error, so the list cannot go stale.

Prints the unexplained statements and the allowlist errors, one per line, then
a summary; exits 0 when both lists are empty and 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import io
import logging
import os
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "versebert"


class Allowed(NamedTuple):
    name: str  # module, then the qualified name inside it: "autograd.Tensor.__repr__"
    fragment: str | None  # source text of the statements meant; None for the whole body
    reason: str


PERFBENCH = "perfbench/spans.py names it in TARGETS, and perfbench's tests assert that none is absent"
ALLOWED = (
    Allowed("autograd.transpose", None, PERFBENCH),
    Allowed("autograd.scale", None, PERFBENCH),
    Allowed("autograd.softmax_rows", None, PERFBENCH),
    Allowed("autograd.concat", None, PERFBENCH),
    Allowed("autograd.sum_all", None, PERFBENCH),
    Allowed("autograd.tape_size", None, "perfbench/spans.py and scripts/step_probe.py count tape records with it"),
    Allowed("autograd.Tensor.__repr__", None, "for a person at a debugger or in a failing test's message"),
    Allowed("autograd", "# a table's second use in one step",
            "a second gradient for a table in one step, from a second lookup or a dense use such as a tied "
            "decoder; no model path uses a table twice, and test_autograd's TestRowGrad checks it"),
    Allowed("autograd._unbroadcast", "keepdims=True",
            "add's general broadcast of a size-1 axis, which test_lean_ops checks with a (1, 3, 1) leaf"),
    Allowed("model.paper_config", None, "the paper-shape preset; a model of that shape is too large to trace"),
    Allowed("cli", "sys.exit(main())", "python -m versebert.cli; the paths call main in process, as the "
            "installed versebert command does"),
    Allowed("cli.main", "OutOfMemory(", "no traced path exhausts memory; test_cli's out-of-memory test reaches it "
            "through a patched init_params"),
    Allowed("training.Checkpoint.to_params", "got = ", "names what is wrong with a bad array before raising"),
    Allowed("evaluation.confusion_matrix", "t, p = truths[bad[0]]",
            "names the first bad label pair before raising; no command can pass one"),
)


class Statement(NamedTuple):
    path: Path
    scope: str  # module, then each enclosing def or class: "autograd.AdamW.step"
    lines: range  # its own lines: a compound statement's header alone
    context: tuple[str, ...]  # its own source, then each enclosing statement's header
    compound: bool
    ran: bool


def _bodies(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in ``node``."""
    bodies = [getattr(node, f) for f in ("body", "orelse", "finalbody") if getattr(node, f, None)]
    bodies += [h.body for h in getattr(node, "handlers", ())] + [c.body for c in getattr(node, "cases", ())]
    return bodies


def statements(path: Path, hit: set[int]) -> list[Statement]:
    """The counted statements of one source file in line order, each marked with whether a line in ``hit`` ran it."""
    source = path.read_text(encoding="utf-8").splitlines()
    found: list[Statement] = []

    def visit(body: list[ast.stmt], scope: str, context: tuple[str, ...], has_doc: bool) -> bool:
        any_ran = False
        for i, node in enumerate(body):
            nested = _bodies(node)
            start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            end = max(start, nested[0][0].lineno - 1) if nested else node.end_lineno
            own = (" ".join(line.strip() for line in source[start - 1:end]), *context)
            inner = f"{scope}.{node.name}" if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
            defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ran = any([visit(b, inner, own, defines) for b in nested]) or not hit.isdisjoint(range(start, end + 1))
            any_ran |= ran
            docstring = has_doc and i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str)
            if not (docstring or isinstance(node, (ast.Global, ast.Nonlocal, ast.Raise))):
                found.append(Statement(path, scope, range(start, end + 1), own, bool(nested), ran))
        return any_ran

    visit(ast.parse("\n".join(source)).body, path.stem, (), True)
    return sorted(found, key=lambda s: s.lines.start)


def explains(entry: Allowed, s: Statement) -> bool:
    in_scope = s.scope == entry.name or s.scope.startswith(entry.name + ".")
    return in_scope and (entry.fragment is None or any(entry.fragment in text for text in s.context))


def check(found: list[Statement], allowed=ALLOWED) -> tuple[list[str], list[str]]:
    """(statements no path ran and no entry explains, allowlist errors), one line each."""
    def where(s: Statement) -> str:
        return f"{os.path.relpath(s.path, ROOT)}:{s.lines.start} {s.scope}: {s.context[0][:80]}"

    errors = []
    for entry in allowed:
        covered = [s for s in found if explains(entry, s)]
        label = entry.name + (f" [{entry.fragment}]" if entry.fragment else "")
        if not covered:
            errors.append(f"allowlist entry {label} names no statement")
        elif all(s.ran for s in covered):
            errors.append(f"allowlist entry {label} explains no statement the run missed")
        errors += [f"allowlist entry {label} explains a statement the run executed: {where(s)}"
                   for s in covered if s.ran and not s.compound]
    missed = [where(s) for s in found if not s.ran and not any(explains(e, s) for e in allowed)]
    return missed, errors


class Tracer:
    """Collects the lines run in the files it is given, in this thread and in threads started later."""

    def __init__(self, paths: list[Path]):
        self.hits = {str(p): set() for p in paths}
        self._local = {name: self._line_tracer(lines) for name, lines in self.hits.items()}

    @staticmethod
    def _line_tracer(lines: set[int]):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def _call(self, frame, event, arg):
        return self._local.get(frame.f_code.co_filename)

    def __enter__(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def _cli(argv: list[str], stdin: str = "", want: int = 0) -> str:
    """Run one ``versebert`` command in this process; its stdout, or SystemExit unless it exits ``want``."""
    from versebert import cli

    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != want:
        raise SystemExit(f"versebert {' '.join(argv)}: exit {code}, not {want}\n{err.getvalue()}")
    return out.getvalue()


def cli_paths(work: Path) -> None:
    """Every command, the configurations that take their own branches, and cheap bad inputs."""
    corpus, lines, vocab = (str(work / n) for n in ("rhyme.tsv", "lines.tsv", "vocab.txt"))
    base, tuned, both = (str(work / n) for n in ("base.ckpt", "rhyme.ckpt", "both.ckpt"))
    for signal, n in (("rhyme", 300), ("gender", 300), ("SentimentT", 40), ("SubMeter", 40)):
        _cli(["synth", "--n", str(n), "--seed", "11", "--signal", signal, "--out", str(work / f"{signal}.tsv")])
    with open(work / "gender.tsv", "a", encoding="utf-8") as fh:
        fh.write("\n")  # an empty row, which load_corpus skips
    _cli(["preprocess", "--in", corpus, "--out", lines])
    _cli(["train-tokenizer", "--in", lines, "--vocab-size", "200", "--out", vocab])
    _cli(["encode", "--vocab", vocab, "--in", lines, "--out", str(work / "ids.tsv")])
    rows = "7\tابت ثج [s] [e]\n\n" + "ب" * 101 + "\n"  # an empty row, and a word too long to segment
    if len(_cli(["encode", "--vocab", vocab, "--max-len", "8"], stdin=rows).splitlines()) != 2:
        raise SystemExit("encode from stdin: not one row per verse line")
    _cli(["encode", "--vocab", vocab, "--max-len", "1", "--in", lines, "--out", str(work / "short.tsv")], want=1)
    train = ["--lines", lines, "--vocab", vocab, "--batch-size", "16", "--max-steps", "2"]
    _cli(["pretrain", *train, "--dropout", "0.1", "--weight-decay", "0.01", "--out", base])
    (work / "learned.json").write_text('{"positional_mode": "learned", "hidden": 16}', encoding="utf-8")
    _cli(["pretrain", *train, "--config", str(work / "learned.json"), "--out", str(work / "learned.ckpt")])
    _cli(["pretrain", *train, "--mask-ratio", "0", "--out", str(work / "unmasked.ckpt")])
    _cli(["pretrain", *train, "--lr", "1e308", "--max-steps", "3", "--out", str(work / "overflow.ckpt")], want=1)
    tune = ["--vocab", vocab, "--batch-size", "16", "--max-steps", "2"]
    _cli(["finetune", "--ckpt", base, "--task", "rhyme", "--corpus", corpus, *tune, "--out", tuned])
    _cli(["finetune", "--ckpt", tuned, "--task", "gender", "--corpus", str(work / "gender.tsv"), *tune,
          "--head-only", "--out", both])
    for task in ("SentimentT", "SubMeter"):
        _cli(["finetune", "--ckpt", base, "--task", task, "--corpus", str(work / f"{task}.tsv"), *tune,
              "--head-only", "--out", str(work / f"{task}.ckpt")])
    evaluate = ["evaluate", "--ckpt", both, "--corpus", corpus, "--vocab", vocab, "--out", str(work / "report.json")]
    _cli([*evaluate, "--task", "rhyme"])
    _cli([*evaluate, "--task", "gender"], want=1)  # no record of the corpus has a gender label
    verses = "قفا نبك من ذكرى\tحبيب ومنزل\nبسقط اللوى\n\n123\n"
    answers = _cli(["predict", "--ckpt", both, "--vocab", vocab, "--task", "rhyme"], stdin=verses, want=1)
    if len(answers.splitlines()) != 3 or answers.count("ERROR\tEmptyHemistich") != 1:
        raise SystemExit(f"predict: not two labels and one ERROR row\n{answers}")
    _cli(["predict", "--ckpt", both, "--vocab", vocab], stdin=verses, want=2)
    _cli(["pretrain"], want=2)


def workload_paths(seed: int = 3) -> None:
    """Two steps of each pretrain workload and one tokenize round, on the benchmark's own inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in ("pretrain-tiny", "pretrain-mid"):
        lines, vocab, config, cfg = workloads.pretrain_inputs(name, seed)
        workloads.pretrain_losses(lines, vocab, config, cfg, 2)
    workloads.tokenize_round(*workloads.tokenize_inputs(seed))


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()  # no options; --help prints usage
    sys.path.insert(0, str(ROOT / "src"))
    logging.basicConfig(handlers=[logging.NullHandler()])  # the commands' log lines are not the output
    paths = sorted(PACKAGE.glob("*.py"))
    started = time.perf_counter()
    with Tracer(paths) as tracer, tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        import versebert

        if versebert.__file__ != str(PACKAGE / "__init__.py"):  # the tracer matches files by this path
            raise SystemExit(f"traced {PACKAGE}, but versebert was imported from {versebert.__file__}")
        cli_paths(Path(tmp))
        workload_paths()
    seconds = time.perf_counter() - started
    found = [s for p in paths for s in statements(p, tracer.hits[str(p)])]
    missed, errors = check(found)
    for line in missed + errors:
        print(line)
    explained = sum(not s.ran for s in found) - len(missed)
    print(f"{sum(s.ran for s in found)} of {len(found)} statements ran in {seconds:.1f} s; {explained} more are "
          f"explained by {len(ALLOWED)} allowlist entries; {len(missed)} unexplained, {len(errors)} allowlist errors")
    return 1 if missed or errors else 0


if __name__ == "__main__":
    sys.exit(main())
