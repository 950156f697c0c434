"""Mutation checks: each mutant is one exact text edit to the program that
named tests must catch, so a later change can tell whether the suite still
catches the faults it was once shown to catch.

    python3 scripts/mutate.py

For each mutant the script copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory, makes the edit there, and runs
pytest on the mutant's test ids from that copy. The copy is needed because
pytest's ``pythonpath`` setting always puts the checkout's own ``src/`` first.
A mutant is killed when a test fails, and survives when the tests pass; any
other pytest outcome (nothing collected, a usage error, ten minutes passing)
is an error. A killed mutant's tests are then run on an unmutated copy, and
unless they pass there the kill is an error too: a test that fails for want of
a file the copy leaves out would otherwise read as a kill whatever the edit. A
fragment found other than exactly once in its file is an error as well, so the
table cannot go stale silently: a change that edits a listed fragment updates
its mutant.

Prints one line per mutant and exits 0 when every mutant is killed, 1 when any
survived or ended in an error.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 600.0  # per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    fragment: str  # found exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest ids; at least one must fail


AUTOGRAD, MODEL, TRAINING = "src/versebert/autograd.py", "src/versebert/model.py", "src/versebert/training.py"
CLI, CORPUS, TOKENIZER = "src/versebert/cli.py", "src/versebert/corpus.py", "src/versebert/tokenizer.py"
ATTENTION_BYTES = ("tests/test_attention.py::test_split_attend_merge_matches_the_composed_chain",
                   "tests/test_attention.py::test_pretrain_checkpoint_bytes_match_the_composed_chain")

MUTANTS = (
    Mutant("add-hands-one-array-to-both-inputs", AUTOGRAD,
           "g.copy() if a.requires_grad and a.shape == b.shape else _unbroadcast(g, b.shape)",
           "_unbroadcast(g, b.shape)",
           ("tests/test_autograd.py::TestTape::test_first_gradient_is_copied_not_aliased",)),
    Mutant("adamw-steps-a-strided-param", AUTOGRAD,
           "if not p.data.flags.c_contiguous:", "if False:",
           ("tests/test_autograd.py::TestBlockedAdamWMatchesSeedStep"
            "::test_a_param_that_is_not_c_contiguous_is_refused_and_changes_nothing",)),
    Mutant("adamw-steps-a-read-only-param", AUTOGRAD,
           "if not p.data.flags.writeable:", "if False:",
           ("tests/test_autograd.py::TestBlockedAdamWMatchesSeedStep"
            "::test_a_read_only_param_is_refused_and_changes_nothing",)),
    Mutant("rowgrad-rows-unchecked", AUTOGRAD,
           "or rows.size and (rows[0] < 0 or rows[-1] >= p.shape[0] or np.any(rows[1:] <= rows[:-1]))", "",
           ("tests/test_autograd.py::TestRowGrad::test_a_bad_row_gradient_is_refused_and_changes_nothing",)),
    Mutant("rowgrad-on-a-scalar-reaches-the-row-checks", AUTOGRAD,
           "if p.data.ndim == 0 or rows.ndim != 1", "if rows.ndim != 1",
           ("tests/test_autograd.py::TestRowGrad::test_a_row_gradient_on_a_scalar_is_refused_and_changes_nothing",)),
    Mutant("sparse-block-skips-momentum-decay", AUTOGRAD,
           "                mb *= b1\n                vb *= b2\n", "",
           ("tests/test_autograd.py::TestRowGrad::test_adamw_matches_the_seed_step_on_the_densified_gradient",)),
    Mutant("embedding-ids-unchecked", AUTOGRAD,
           "if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):", "if False:",
           ("tests/test_autograd.py::TestForwardValues::test_embedding_id_out_of_range_raises_and_records_nothing",)),
    Mutant("attention-backward-overwrites-gy", AUTOGRAD,
           "np.add.reduce(np.multiply(gy, y), axis=-1", "np.add.reduce(np.multiply(gy, y, out=gy), axis=-1",
           ATTENTION_BYTES),
    Mutant("attention-swaps-k-and-v", AUTOGRAD,
           "q, k, v = data.reshape(", "q, v, k = data.reshape(", ATTENTION_BYTES),
    Mutant("head-merge-without-the-swap", AUTOGRAD,
           "o = o.swapaxes(-2, -3)", "o = o.swapaxes(-1, -1)", ATTENTION_BYTES),
    Mutant("key-bias-on-the-real-keys", MODEL,
           "np.where(mask == 0, MASK_BIAS, 0.0)", "np.where(mask != 0, MASK_BIAS, 0.0)",
           ("tests/test_batched.py::test_padded_keys_get_exactly_zero_weight",)),
    Mutant("all-masked-row-attends", MODEL,
           "if not mask.any(axis=-1).all():", "if False:",
           ("tests/test_attention.py::TestEncoder::test_a_row_with_no_attended_position_is_all_masked",
            "tests/test_model.py::TestScaledDotAttention::test_all_masked_rejected")),
    Mutant("cls-from-row-1", MODEL,
           "np.arange(0, b * t, t)", "np.arange(1, b * t, t)",
           ("tests/test_batched.py::test_cls_logits_match",
            "tests/test_batched.py::test_classification_gradients_match")),
    Mutant("cut-at-the-first-layer", MODEL,
           "if cut := rows is not None and layer is params.layers[-1]:",
           "if cut := rows is not None and layer is params.layers[0]:",
           ("tests/test_fit.py::test_pretrain_at_the_mid_shape_keeps_its_bytes",)),
    Mutant("cut-before-the-residual-add", MODEL,
           "        x = ag.add(x, ag.dropout(attn, dropout_rate, dropout_rng, (ids.size, real)))\n"
           "        if cut := rows is not None and layer is params.layers[-1]:\n"
           "            x = ag.take_rows(x, at)  # rows' places among the real positions, as rows of x\n",
           "        if cut := rows is not None and layer is params.layers[-1]:\n"
           "            x, attn = (ag.take_rows(a, at) for a in (x, attn))\n"
           "        x = ag.add(x, ag.dropout(attn, dropout_rate, dropout_rng, None if cut else (ids.size, real)))\n",
           ("tests/test_fit.py::test_the_dropout_stream_ends_where_the_separate_set_up_leaves_it",
            "tests/test_batched.py::test_a_row_cut_matches_the_full_forward_at_its_rows")),
    Mutant("dropout-mask-drawn-at-the-cut-size", MODEL,
           "(ids.size, rows if cut else real)", "None if cut else (ids.size, real)",
           ("tests/test_fit.py::test_the_dropout_stream_ends_where_the_separate_set_up_leaves_it",)),
    Mutant("positions-counted-in-packed-order", MODEL,
           "ag.embedding_lookup(table, real % t)", "ag.embedding_lookup(table, np.arange(real.size) % t)",
           ("tests/test_batched.py::test_hidden_states_match_at_real_positions",)),
    Mutant("cut-rows-not-mapped-to-packed-order", MODEL,
           "ag.take_rows(x, at)", "ag.take_rows(x, rows)",
           ("tests/test_batched.py::test_mlm_loss_and_every_gradient_match",)),
    Mutant("rows-not-checked-as-real", MODEL,
           "if rows is not None and not np.array_equal("
           'np.take(real, at := np.searchsorted(real, rows), mode="clip"), rows):',
           "if rows is not None and (at := np.searchsorted(real, rows)) is None:",
           ("tests/test_packed.py::test_rows_that_are_not_real_positions_raise_before_any_op",)),
    Mutant("attention-gathers-rows-shifted-by-one", AUTOGRAD,
           "np.take(o, real, axis=0", "np.take(o, real + 1, axis=0",
           ("tests/test_batched.py::test_hidden_states_match_at_real_positions",)),
    Mutant("trim-one-short", MODEL,
           "int(mask.any(axis=0).nonzero()[0].max(initial=0)) + 1",
           "int(mask.any(axis=0).nonzero()[0].max(initial=0))",
           ("tests/test_batched.py::test_batch_is_trimmed_to_its_longest_verse",)),
    Mutant("v1-file-loads", TRAINING,
           "if version != CHECKPOINT_VERSION:", "if version > CHECKPOINT_VERSION:",
           ("tests/test_training.py::TestCheckpointV2::test_v1_with_optimizer_state_is_refused",
            "tests/test_cli.py::TestExitCodes::test_evaluate_and_predict_refuse_a_bad_set_up_alike"
            "[v1-file-VersionMismatch]")),
    Mutant("no-payload-sha256-check", TRAINING,
           'if header["payload_sha256"] != hashlib.sha256(data).hexdigest():',
           'if "payload_sha256" not in header:',
           ("tests/test_training.py::TestCheckpointV2::test_flipped_payload_bit_rejected",)),
    Mutant("no-overlap-check", TRAINING,
           "if start < reach and end > start:", "if False:",
           ("tests/test_training.py::TestCheckpointV2::test_malformed_header_raises_corrupt_file",)),
    Mutant("optimizer-state-loads", TRAINING,
           'if header["optimizer"] is not None:', "if False:",
           ("tests/test_steady_state.py::TestCheckpointWrite::test_a_file_with_optimizer_state_is_refused",)),
    Mutant("checkpoint-payload-unaligned", TRAINING,
           "memoryview(raw)[-(raw.ctypes.data + skip) % 64 :]", "memoryview(raw)[1:]",
           ("tests/test_lean_ops.py::TestCheckpointViews"
            "::test_the_payload_starts_on_a_64_byte_boundary_whatever_the_header_length",)),
    Mutant("check-vocab-never-raises", TRAINING,
           "if self.vocab_digest != vocab.digest():", "if False:",
           ("tests/test_training.py::TestFinetune::test_digest_mismatch_rejected",
            "tests/test_cli.py::TestExitCodes::test_evaluate_and_predict_refuse_a_bad_set_up_alike"
            "[foreign-vocab-DigestMismatch]")),
    Mutant("to-params-accepts-unknown-arrays", TRAINING,
           "if unknown := sorted(set(self.arrays) - {name for name, _ in params.named_parameters()}):",
           "if unknown := []:",
           ("tests/test_training.py::TestCheckpointShapes::test_array_the_model_does_not_have_named",)),
    Mutant("no-head-size-check", "src/versebert/evaluation.py",
           "if (outputs := head[1].shape[0]) != taxonomy.num_labels:",
           "if (outputs := head[1].shape[0]) < 0:",
           ("tests/test_cli.py::TestExitCodes::test_evaluate_and_predict_refuse_a_bad_set_up_alike",)),
    Mutant("scoring-trims-the-heap", "src/versebert/evaluation.py",
           "ag.keep_freed_heap()", "None",
           ("tests/test_scratch.py::TestScoringHeap::test_warm_calls_reuse_the_freed_heap",)),
    Mutant("training-keeps-glibc-defaults", TRAINING,
           "ag.keep_freed_heap()", "None",
           ("tests/test_scratch.py::TestTrainingHeap::test_steady_steps_reuse_the_freed_heap",)),
    Mutant("no-min-frequency-floor", TOKENIZER,
           "floor = max(min_frequency, 1)", "floor = min_frequency",
           ("tests/test_tokenizer.py::TestTrainWordpiece::test_min_frequency_zero_equals_one",)),
    Mutant("no-heap-re-push", TOKENIZER,
           "heapq.heappush(heap, e)", "pass",
           ("tests/test_tokenizer.py::TestTrainerMatchesSeedTrainer::test_identical_tokens",)),
    Mutant("vocab-accepts-a-wrong-reserved-prefix", TOKENIZER,
           "if tuple(self.tokens[:N_RESERVED]) != RESERVED:", "if False:",
           ("tests/test_tokenizer.py::TestVocabIO::test_reserved_prefix_enforced",)),
    Mutant("vocab-loads-bytes-that-are-not-utf8", TOKENIZER,
           'open(path, encoding="utf-8")', 'open(path, encoding="utf-8", errors="replace")',
           ("tests/test_tokenizer.py::TestVocabIO::test_load_malformed_raises_corrupt_file[not-utf8]",)),
    Mutant("corpus-accepts-a-repeated-column", CORPUS,
           "if col not in FIELDS or col in header[:i]:", "if col not in FIELDS:",
           ("tests/test_corpus.py::TestLoadCorpus::test_column_named_twice",)),
    Mutant("corpus-accepts-too-few-fields", CORPUS,
           "if len(cells) != len(header):", "if len(cells) > len(header):",
           ("tests/test_corpus.py::TestLoadCorpus::test_too_few_fields",)),
    Mutant("corpus-accepts-an-unknown-label", CORPUS,
           "if val is not None and val not in domain:", "if False:",
           ("tests/test_corpus.py::TestLoadCorpus::test_unknown_meter",)),
    Mutant("config-file-accepts-unknown-keys", CLI,
           "if unknown := sorted(set(cfg) - known):", "if unknown := []:",
           ("tests/test_cli.py::TestBadInvocations::test_exits_one_with_a_named_error_and_writes_nothing"
            "[unknown-config-keys]",)),
    Mutant("ffn-dim-from-the-preset", CLI,
           '{"ffn_dim": None, **file_cfg}', "file_cfg",
           ("tests/test_cli.py::TestConfigMerging::test_ffn_dim_follows_hidden_unless_the_config_file_sets_it",)),
    Mutant("out-of-memory-escapes-as-a-traceback", CLI,
           "except (VerseBertError, OSError, MemoryError) as exc:", "except (VerseBertError, OSError) as exc:",
           ("tests/test_cli.py::TestBadInvocations::test_running_out_of_memory_is_a_named_error_and_writes_nothing",)),
    Mutant("no-validation-pre-check", CLI,
           "if not [preprocess.preprocess_verse(r) for r, _ in corpus_mod.task_pairs(val_store, tax.task_id)]:",
           "if not corpus_mod.task_pairs(val_store, tax.task_id):",
           ("tests/test_cli.py::TestTrainingInput::test_finetune_with_a_bad_validation_verse_fails_before_training",)),
)


def mutated_text(mutant: Mutant) -> str:
    """``mutant.file`` with its fragment replaced; ValueError unless the fragment is found exactly once."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if (count := text.count(mutant.fragment)) != 1:
        raise ValueError(f"{mutant.name}: fragment found {count} times in {mutant.file}")
    return text.replace(mutant.fragment, mutant.replacement)


def run(mutant: Mutant) -> str:
    """"killed", "survived" or "error: <why>" for ``mutant`` against its tests, in a copy of the tree."""
    text = mutated_text(mutant)
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, tree / name)
        (tree / mutant.file).write_text(text, encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        try:
            done = subprocess.run(command, cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error: no result within {TIMEOUT_S:g} s"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error: pytest exit code {done.returncode}")


def checked_run(mutant: Mutant) -> str:
    """``run(mutant)``, except that a kill is an error unless the same tests pass on an unmutated copy."""
    result = run(mutant)
    if result == "killed" and (control := run(mutant._replace(replacement=mutant.fragment))) != "survived":
        return f"error: its tests do not pass unmutated ({control})"
    return result


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()  # no options; --help prints usage
    for m in MUTANTS:  # every fragment is checked before any mutant runs
        mutated_text(m)
    started, results = time.perf_counter(), []
    for m in MUTANTS:
        t0 = time.perf_counter()
        results.append(checked_run(m))
        print(f"{results[-1]:<9} {m.name} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{results.count('killed')} of {len(MUTANTS)} killed in {time.perf_counter() - started:.0f} s")
    return 0 if results.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
