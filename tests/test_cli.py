import io
import json

import pytest

from versebert import cli, evaluation, training
from versebert.corpus import load_corpus, task_label, taxonomy
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
        assert len(store) == 120

    def test_encode_to_file(self, pipeline, tmp_path):
        out = tmp_path / "enc.tsv"
        assert cli.main(["encode", "--vocab", str(pipeline["vocab"]), "--max-len", "32",
                         "--in", str(pipeline["lines"]), "--out", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        ids, mask = first.split("\t")
        assert len(ids.split()) == 32
        assert len(mask.split()) == 32

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
