import dataclasses
import io
import json
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from versebert import cli, evaluation, model as mdl, tokenizer, training
from versebert.corpus import CorpusStore, generate_synthetic, load_corpus, split, task_label, taxonomy, write_corpus
from versebert.tokenizer import Vocab


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> preprocess -> train-tokenizer -> pretrain, shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "corpus": root / "c.tsv",
        "lines": root / "lines.tsv",
        "vocab": root / "vocab.txt",
        "ckpt": root / "base.ckpt",
        "tuned": root / "rhyme.ckpt",
    }
    assert cli.main(["synth", "--n", "120", "--seed", "1", "--signal", "rhyme",
                     "--out", str(paths["corpus"])]) == 0
    assert cli.main(["preprocess", "--in", str(paths["corpus"]),
                     "--out", str(paths["lines"])]) == 0
    assert cli.main(["train-tokenizer", "--in", str(paths["lines"]),
                     "--vocab-size", "512", "--out", str(paths["vocab"])]) == 0
    assert cli.main(["pretrain", "--lines", str(paths["lines"]), "--vocab", str(paths["vocab"]),
                     "--out", str(paths["ckpt"]), "--preset", "tiny",
                     "--max-steps", "4", "--seed", "42"]) == 0
    assert cli.main(["finetune", "--ckpt", str(paths["ckpt"]), "--task", "rhyme",
                     "--corpus", str(paths["corpus"]), "--vocab", str(paths["vocab"]),
                     "--out", str(paths["tuned"]), "--preset", "tiny",
                     "--max-steps", "60", "--lr", "0.003", "--seed", "7"]) == 0
    return paths


class TestPipelineSmoke:
    def test_three_manifests_written(self, pipeline):
        for key in ("corpus", "lines", "vocab"):
            manifest = json.loads(
                (pipeline[key].parent / (pipeline[key].name + ".manifest.json")).read_text()
            )
            assert "command" in manifest and "duration_seconds" in manifest

    def test_synth_output_loads(self, pipeline):
        store = load_corpus(pipeline["corpus"])
        assert len(store.records) == 120

    def test_encode_to_file(self, pipeline, tmp_path):
        out = tmp_path / "enc.tsv"
        assert cli.main(["encode", "--vocab", str(pipeline["vocab"]), "--max-len", "32",
                         "--in", str(pipeline["lines"]), "--out", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        ids, mask = first.split("\t")
        assert len(ids.split()) == 32
        assert len(mask.split()) == 32

    def test_encode_reads_stdin_rows_as_it_reads_the_in_file(self, pipeline, tmp_path, monkeypatch, capsys):
        # ``head -2 lines.tsv | versebert encode`` used to keep the verse_id column as an [UNK] piece
        head = tmp_path / "head.tsv"
        head.write_text("".join(pipeline["lines"].read_text(encoding="utf-8").splitlines(keepends=True)[:2]) + "\n",
                        encoding="utf-8")
        argv = ["encode", "--vocab", str(pipeline["vocab"]), "--max-len", "32"]
        assert cli.main(argv + ["--in", str(head)]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(head.read_text(encoding="utf-8")))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == from_file
        assert from_file.count("\n") == 2 and f" {tokenizer.UNK_ID} " not in from_file.split("\t")[0]

    def test_train_tokenizer_never_rebuilds_a_reserved_token(self, tmp_path, capsys):
        lines, out = tmp_path / "lines.txt", tmp_path / "vocab.txt"
        lines.write_text("تا [s]بب ت [s]بب تا\n[s]بب [s]بب ت\n", encoding="utf-8")
        assert cli.main(["train-tokenizer", "--in", str(lines), "--min-frequency", "1", "--vocab-size", "80",
                         "--out", str(out)]) == 0
        assert Vocab.load(out).tokens.count("[s]") == 1

    def test_evaluate_writes_report_and_csv(self, pipeline, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["evaluate", "--ckpt", str(pipeline["tuned"]), "--corpus", str(pipeline["corpus"]),
                         "--task", "rhyme", "--vocab", str(pipeline["vocab"]),
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["task_id"] == "Rhyme"
        assert (tmp_path / "report.json.confusion.csv").exists()

    def test_predict_reads_stdin(self, pipeline, monkeypatch, capsys):
        store = load_corpus(pipeline["corpus"])
        record = store.records[0]
        raw = record.hemistich1 + "\t" + (record.hemistich2 or "")
        monkeypatch.setattr("sys.stdin", io.StringIO(raw + "\n"))
        assert cli.main(["predict", "--ckpt", str(pipeline["tuned"]),
                         "--vocab", str(pipeline["vocab"])]) == 0
        out = capsys.readouterr().out.strip()
        label, confidence = out.split("\t")
        assert len(label) >= 1
        assert 0.0 <= float(confidence) <= 1.0


    def test_predict_labels_equal_evaluate_labels(self, pipeline, monkeypatch, capsys):
        # predict runs each verse alone; predict_corpus scores chunks of 32
        store = load_corpus(pipeline["corpus"])
        tax = taxonomy("rhyme")
        vocab = Vocab.load(pipeline["vocab"])
        preds, _ = evaluation.predict_corpus(training.load_checkpoint(pipeline["tuned"]), store, tax, vocab)
        labeled = [r for r in store.records if task_label(r, tax.task_id) is not None]
        raw = "".join(r.hemistich1 + "\t" + (r.hemistich2 or "") + "\n" for r in labeled)
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        assert cli.main(["predict", "--ckpt", str(pipeline["tuned"]), "--vocab", str(pipeline["vocab"])]) == 0
        printed = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
        assert len(preds) > evaluation.EVAL_CHUNK
        assert printed == [tax.name(p) for p in preds]


class TestManifests:
    def test_each_manifest_records_the_numeric_environment(self, pipeline, tmp_path):
        report = tmp_path / "report.json"
        assert cli.main(["evaluate", "--ckpt", str(pipeline["tuned"]), "--corpus", str(pipeline["corpus"]),
                         "--task", "rhyme", "--vocab", str(pipeline["vocab"]), "--out", str(report)]) == 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        want = {"python": platform.python_version(), "numpy": np.__version__,
                "blas": f"{blas['name']} {blas['version']}", "openblas_thread_timeout": os.environ["OPENBLAS_THREAD_TIMEOUT"]}
        outs = [pipeline[key] for key in ("corpus", "lines", "vocab", "ckpt", "tuned")] + [report]
        manifests = [json.loads(Path(f"{out}.manifest.json").read_text()) for out in outs]
        assert [m["command"] for m in manifests] == ["synth", "preprocess", "train-tokenizer", "pretrain", "finetune",
                                                     "evaluate"]
        for out, manifest in zip(outs, manifests):
            assert manifest["environment"] == want
            assert manifest["artifacts"][0] == str(out) and manifest["duration_seconds"] >= 0.0
        assert manifests[-1]["artifacts"] == [str(report), f"{report}.confusion.csv"]

    def test_duration_is_timed_from_main(self, pipeline, tmp_path, monkeypatch):
        clock = iter([100.0, 102.5])
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(time=lambda: next(clock)))
        out = tmp_path / "lines.tsv"
        assert cli.main(["preprocess", "--in", str(pipeline["corpus"]), "--out", str(out)]) == 0
        assert json.loads(Path(f"{out}.manifest.json").read_text())["duration_seconds"] == 2.5


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli.main(["synth", "--n", "5"]) == 2
        capsys.readouterr()

    def test_domain_error_exits_one_with_error_name(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("hemistich1\tmeter\nقفا\tNotAMeter\n", encoding="utf-8")
        out = tmp_path / "lines.tsv"
        assert cli.main(["preprocess", "--in", str(bad), "--out", str(out)]) == 1
        assert "UnknownLabel" in capsys.readouterr().err

    def test_unknown_task_is_domain_error(self, pipeline, tmp_path, capsys):
        assert cli.main(["synth", "--n", "4", "--seed", "0", "--signal", "nosuchtask",
                         "--out", str(tmp_path / "x.tsv")]) == 1
        assert "UnknownLabel" in capsys.readouterr().err

    def test_malformed_vocab_is_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a\nb\nc\n", encoding="utf-8")
        assert cli.main(["encode", "--vocab", str(bad), "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptFile: ") and str(bad) in err

    @pytest.mark.parametrize("command", ["preprocess", "train-tokenizer", "encode", "pretrain", "finetune", "evaluate"])
    def test_input_file_that_is_not_utf8_is_corrupt_file(self, pipeline, tmp_path, capsys, command):
        bad, out = tmp_path / "bad.tsv", str(tmp_path / "out")
        bad.write_bytes(b"\xff\xfe\n")
        vocab, ckpt = str(pipeline["vocab"]), str(pipeline["ckpt"])
        argv = {
            "preprocess": ["--in", str(bad), "--out", out],
            "train-tokenizer": ["--in", str(bad), "--vocab-size", "40", "--out", out],
            "encode": ["--vocab", vocab, "--in", str(bad), "--out", out],
            "pretrain": ["--lines", str(bad), "--vocab", vocab, "--out", out, "--max-steps", "1"],
            "finetune": ["--ckpt", ckpt, "--task", "rhyme", "--corpus", str(bad), "--vocab", vocab, "--out", out],
            "evaluate": ["--ckpt", ckpt, "--task", "rhyme", "--corpus", str(bad), "--vocab", vocab, "--out", out],
        }[command]
        assert cli.main([command, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptFile: ") and str(bad) in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["bad.tsv"]

    @pytest.mark.parametrize("ckpt, task", [("ckpt", None), ("ckpt", "rhyme"), ("tuned", "gender")],
                             ids=["no-head", "no-head-task", "other-task"])
    def test_predict_without_the_needed_head_is_label_out_of_range(self, pipeline, monkeypatch, capsys, ckpt, task):
        # a pretrain-only checkpoint has no head at all; the finetuned one has only Rhyme's
        monkeypatch.setattr("sys.stdin", io.StringIO("قفا نبك\n"))
        argv = ["predict", "--ckpt", str(pipeline[ckpt]), "--vocab", str(pipeline["vocab"])]
        assert cli.main(argv + (["--task", task] if task else [])) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("LabelOutOfRange: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("set_up, error", [
        ("foreign-vocab", "DigestMismatch"), ("pretrain-only", "LabelOutOfRange"), ("other-task", "LabelOutOfRange"),
        ("5-outputs", "LabelOutOfRange"), ("40-outputs", "LabelOutOfRange"),
    ])
    def test_evaluate_and_predict_refuse_a_bad_set_up_alike(self, pipeline, tmp_path, monkeypatch, capsys,
                                                             set_up, error):
        ckpt, vocab, task = pipeline["tuned"], pipeline["vocab"], "rhyme"
        if set_up == "foreign-vocab":
            vocab = tmp_path / "vocab.txt"
            vocab.write_text(pipeline["vocab"].read_text(encoding="utf-8") + "zzqq\n", encoding="utf-8")
        elif set_up == "pretrain-only":
            ckpt = pipeline["ckpt"]
        elif set_up == "other-task":
            task = "gender"
        else:  # the Rhyme head resized; the task has 31 labels
            tuned = training.load_checkpoint(pipeline["tuned"])
            w, b = mdl.init_head(tuned.model_config, int(set_up.split("-")[0]), np.random.default_rng(0))
            tuned.arrays.update({"heads.Rhyme.w": w.data, "heads.Rhyme.b": b.data})
            ckpt = tmp_path / "resized.ckpt"
            training.save_checkpoint(tuned, ckpt)
        common = ["--ckpt", str(ckpt), "--vocab", str(vocab), "--task", task]
        report = tmp_path / "report.json"
        assert cli.main(["evaluate", *common, "--corpus", str(pipeline["corpus"]), "--out", str(report)]) == 1
        errors = [capsys.readouterr().err]
        monkeypatch.setattr("sys.stdin", io.StringIO("قفا نبك\n"))
        assert cli.main(["predict", *common]) == 1
        captured = capsys.readouterr()
        errors.append(captured.err)
        assert [err.split(":")[0] for err in errors] == [error, error]
        assert all(err.count("\n") == 1 for err in errors) and captured.out == "" and not report.exists()
        if set_up.endswith("-outputs"):
            assert all(f"{set_up.split('-')[0]} outputs" in err and "31 labels" in err for err in errors)

    def test_predict_with_several_heads_and_no_task_is_usage_error(self, pipeline, tmp_path, monkeypatch, capsys):
        ckpt = training.load_checkpoint(pipeline["tuned"])
        w, b = mdl.init_head(ckpt.model_config, taxonomy("gender").num_labels, np.random.default_rng(0))
        ckpt.arrays.update({"heads.Gender.w": w.data, "heads.Gender.b": b.data})
        path = tmp_path / "two.ckpt"
        training.save_checkpoint(ckpt, path)
        monkeypatch.setattr("sys.stdin", io.StringIO("قفا نبك\n"))
        argv = ["predict", "--ckpt", str(path), "--vocab", str(pipeline["vocab"])]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "checkpoint has heads ['Gender', 'Rhyme']; pass --task\n"
        assert cli.main(argv + ["--task", "gender"]) == 0
        assert capsys.readouterr().out.split("\t")[0] in taxonomy("gender").labels

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        out = tmp_path / "vocab.txt"
        assert cli.main(["train-tokenizer", "--in", str(missing), "--vocab-size", "40",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FileNotFoundError: ") and str(missing) in err
        assert err.count("\n") == 1
        assert not out.exists()


    def test_encode_max_len_below_two_exits_one(self, pipeline, tmp_path, capsys):
        out = tmp_path / "enc.tsv"
        assert cli.main(["encode", "--vocab", str(pipeline["vocab"]), "--max-len", "1",
                         "--in", str(pipeline["lines"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ShapeMismatch: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_failed_encode_leaves_old_output_and_no_temp_file(self, pipeline, tmp_path, monkeypatch, capsys):
        out = tmp_path / "enc.tsv"
        argv = ["encode", "--vocab", str(pipeline["vocab"]), "--max-len", "16",
                "--in", str(pipeline["lines"]), "--out", str(out)]
        assert cli.main(argv) == 0
        assert os.listdir(tmp_path) == ["enc.tsv"]
        old = out.read_bytes()
        assert old.count(b"\n") == 120
        encode, calls = tokenizer.encode, []

        def fail_on_third_line(line, vocab, max_len):
            calls.append(line)
            if len(calls) == 3:
                raise OSError("disk full")
            return encode(line, vocab, max_len)

        monkeypatch.setattr(tokenizer, "encode", fail_on_third_line)
        assert cli.main(argv[:-1] + [str(tmp_path / "new.tsv")]) == 1
        calls.clear()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.count("OSError: disk full") == 2
        assert out.read_bytes() == old
        assert os.listdir(tmp_path) == ["enc.tsv"]


class TestTrainingInput:
    """Empty training input and flags a subcommand does not read."""

    def _finetune_argv(self, pipeline, out, *extra, corpus=None):
        return ["finetune", "--ckpt", str(pipeline["ckpt"]), "--corpus", str(corpus or pipeline["corpus"]),
                "--vocab", str(pipeline["vocab"]), "--out", str(out), "--preset", "tiny", "--max-steps", "1", *extra]

    def test_pretrain_on_no_lines_is_empty_corpus(self, pipeline, tmp_path, capsys):
        empty, out = tmp_path / "empty.txt", tmp_path / "c.ckpt"
        empty.write_text("", encoding="utf-8")
        assert cli.main(["pretrain", "--lines", str(empty), "--vocab", str(pipeline["vocab"]),
                         "--out", str(out), "--preset", "tiny", "--max-steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("EmptyCorpus: pretrain") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["empty.txt"]

    def test_finetune_on_a_task_the_corpus_lacks_is_empty_corpus(self, pipeline, tmp_path, capsys):
        assert cli.main(self._finetune_argv(pipeline, tmp_path / "g.ckpt", "--task", "gender")) == 1
        err = capsys.readouterr().err
        assert err.startswith("EmptyCorpus: finetune") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_finetune_with_no_label_in_the_validation_split_is_empty_corpus(self, pipeline, tmp_path, capsys):
        store = load_corpus(pipeline["corpus"])
        val_ids = {r.verse_id for r in split(store, 0.8, 3)[1].records}
        records = [dataclasses.replace(r, rhyme=None) if r.verse_id in val_ids else r for r in store.records]
        write_corpus(CorpusStore(tuple(records), "t"), tmp_path / "c.tsv")
        assert cli.main(self._finetune_argv(pipeline, tmp_path / "r.ckpt", "--task", "rhyme", "--split-seed", "3",
                                            corpus=tmp_path / "c.tsv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("EmptyCorpus: finetune") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["c.tsv"]

    def test_evaluate_on_a_corpus_without_the_task_label_is_empty_corpus(self, pipeline, tmp_path, capsys):
        write_corpus(generate_synthetic(20, seed=2, signal="gender"), tmp_path / "g.tsv")
        assert cli.main(["evaluate", "--ckpt", str(pipeline["tuned"]), "--corpus", str(tmp_path / "g.tsv"),
                         "--task", "rhyme", "--vocab", str(pipeline["vocab"]), "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("EmptyCorpus: ") and "Rhyme" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["g.tsv"]

    @pytest.mark.parametrize("flag", ["--num-layers", "--num-heads", "--hidden", "--max-len", "--mask-ratio"])
    def test_finetune_refuses_model_shape_flags(self, pipeline, tmp_path, capsys, flag):
        assert cli.main(self._finetune_argv(pipeline, tmp_path / "r.ckpt", "--task", "rhyme", flag, "64")) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestBadInvocations:
    """A bad value or an unknown config key, from a flag or a file, ends in one named error line
    and exit 1 in a real process, and leaves no output file or manifest."""

    CASES = {
        "unknown-config-keys": ("pretrain", {"batch_sise": 8, "hidden_size": 64}, [], "batch_sise, hidden_size"),
        "shape-key-in-finetune-config": ("finetune", {"hidden": 999}, [], "hidden"),
        "overwritten-keys-in-pretrain-config": ("pretrain", {"vocab_size": 9, "checkpoint_path": "elsewhere.ckpt"}, [],
                                                "checkpoint_path, vocab_size"),
        "unread-keys-in-finetune-config": ("finetune", {"checkpoint_path": "elsewhere.ckpt", "mask_ratio": 0.9,
                                                        "mask_prob": 0.8, "random_prob": 0.1, "keep_prob": 0.1}, [],
                                           "checkpoint_path, keep_prob, mask_prob, mask_ratio, random_prob"),
        "eval-every-zero": ("pretrain", None, ["--eval-every", "0"], "eval_every"),
        "negative-max-steps": ("pretrain", None, ["--max-steps", "-3"], "max_steps"),
        "negative-lr": ("pretrain", None, ["--lr", "-1"], "lr must be finite and positive"),
        "synth-zero-verses": ("synth", None, ["--n", "0"], "n must be positive"),
        "split-ratio-above-one": ("finetune", None, ["--ratio", "1.5"], "ratio must be in (0, 1)"),
        "pretrain-negative-seed": ("pretrain", None, ["--seed", "-1"], "seed must be at least 0"),
        "finetune-negative-seed": ("finetune", None, ["--seed", "-2"], "seed must be at least 0"),
        "finetune-negative-split-seed": ("finetune", None, ["--split-seed", "-2"], "split seed must be non-negative"),
        "synth-negative-seed": ("synth", None, ["--n", "4", "--seed", "-3"], "seed non-negative"),
    }

    @pytest.mark.parametrize("command, config, extra, named", CASES.values(), ids=CASES.keys())
    def test_exits_one_with_a_named_error_and_writes_nothing(self, pipeline, tmp_path, command, config, extra, named):
        out = str(tmp_path / "out")
        argv = {
            "synth": ["synth", "--seed", "1", "--signal", "rhyme", "--out", out],
            "pretrain": ["pretrain", "--lines", str(pipeline["lines"]), "--vocab", str(pipeline["vocab"]),
                         "--out", out, "--max-steps", "1"],
            "finetune": ["finetune", "--ckpt", str(pipeline["ckpt"]), "--task", "rhyme", "--corpus",
                         str(pipeline["corpus"]), "--vocab", str(pipeline["vocab"]), "--out", out, "--max-steps", "1"],
        }[command] + extra
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "versebert.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("InvalidConfig: ") and named in done.stderr
        assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1
        assert os.listdir(tmp_path) == ([] if config is None else ["cfg.json"])


class TestDeterminism:
    def test_pretrain_same_seed_bit_identical(self, pipeline, tmp_path):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            assert cli.main(["pretrain", "--lines", str(pipeline["lines"]),
                             "--vocab", str(pipeline["vocab"]), "--out", str(out),
                             "--preset", "tiny", "--max-steps", "4", "--seed", "42"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_synth_rerun_overwrites_identically(self, pipeline, tmp_path):
        out = tmp_path / "s.tsv"
        cli.main(["synth", "--n", "30", "--seed", "3", "--signal", "gender", "--out", str(out)])
        first = out.read_bytes()
        cli.main(["synth", "--n", "30", "--seed", "3", "--signal", "gender", "--out", str(out)])
        assert out.read_bytes() == first

    def test_input_files_not_mutated(self, pipeline, tmp_path):
        before = pipeline["corpus"].read_bytes()
        cli.main(["preprocess", "--in", str(pipeline["corpus"]), "--out", str(tmp_path / "l.tsv")])
        assert pipeline["corpus"].read_bytes() == before


class TestConfigMerging:
    def test_config_file_overridden_by_flag(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_steps": 2, "seed": 5}))
        out = tmp_path / "c.ckpt"
        assert cli.main(["pretrain", "--lines", str(pipeline["lines"]),
                         "--vocab", str(pipeline["vocab"]), "--out", str(out),
                         "--preset", "tiny", "--config", str(cfg), "--max-steps", "3"]) == 0
        manifest = json.loads((tmp_path / "c.ckpt.manifest.json").read_text())
        assert manifest["config"]["train"]["max_steps"] == 3
        assert manifest["config"]["train"]["seed"] == 5


class TestConfigErrors:
    """A bad config ends in a named error and exit 1, with no checkpoint written."""

    def _pretrain(self, pipeline, tmp_path, *extra):
        out = tmp_path / "c.ckpt"
        code = cli.main(["pretrain", "--lines", str(pipeline["lines"]), "--vocab", str(pipeline["vocab"]),
                         "--out", str(out), "--preset", "tiny", "--max-steps", "1", *extra])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("text", ['{"max_steps": 2,', "[1, 2]", "\udcff"])
    def test_config_file_that_is_not_a_json_object_is_corrupt_file(self, pipeline, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text, encoding="utf-8", errors="surrogateescape")
        assert self._pretrain(pipeline, tmp_path, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("CorruptFile: ") and str(cfg) in err and err.count("\n") == 1

    def test_zero_batch_size_flag_is_invalid_config(self, pipeline, tmp_path, capsys):
        assert self._pretrain(pipeline, tmp_path, "--batch-size", "0") == 1
        assert capsys.readouterr().err.startswith("InvalidConfig: batch_size")

    def test_zero_batch_size_in_config_file_is_invalid_config(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 0}))
        assert self._pretrain(pipeline, tmp_path, "--config", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("InvalidConfig: batch_size")

    def test_heads_that_do_not_divide_hidden_is_invalid_config(self, pipeline, tmp_path, capsys):
        assert self._pretrain(pipeline, tmp_path, "--num-heads", "3") == 1
        assert capsys.readouterr().err.startswith("InvalidConfig: hidden 32 not divisible by heads 3")

    @pytest.mark.parametrize("values", [{"batch_size": "8"}, {"hidden": "32"}, {"lr": "fast"},
                                        {"eval_every": True}, {"ffn_dim": 12.5}])
    def test_config_file_value_of_the_wrong_type_is_invalid_config(self, pipeline, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert self._pretrain(pipeline, tmp_path, "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"InvalidConfig: {next(iter(values))} must be ") and err.count("\n") == 1

    def test_dropout_outside_the_unit_interval_is_invalid_config(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dropout": -0.1}))
        assert self._pretrain(pipeline, tmp_path, "--dropout", "1.5") == 1
        assert self._pretrain(pipeline, tmp_path, "--dropout", "1") == 1
        assert self._pretrain(pipeline, tmp_path, "--config", str(cfg)) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["InvalidConfig: dropout must be in [0, 1)"] * 3

    def test_invalid_config_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            training.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            mdl.ModelConfig(hidden=32, num_heads=3)
