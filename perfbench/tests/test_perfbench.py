"""Tests of the benchmark's own parts: generators, span self time, percentiles,
tracer installation and the agreement of BENCHMARK.json with the code."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def test_zipf_corpus_is_byte_stable_for_a_seed():
    words, lines = gen.zipf_corpus(7, 50, 300)
    digest = hashlib.sha256(("\n".join(words) + "\n" + "\n".join(lines)).encode()).hexdigest()
    assert digest == "688c9dc077fcffd45e16cbbef408ab5eaba138be3f7cdf1474c0fa68f7c3dc23"
    assert gen.zipf_corpus(7, 50, 300) == (words, lines)
    assert gen.zipf_corpus(8, 50, 300)[1] != lines


def test_zipf_corpus_shape():
    words, lines = gen.zipf_corpus(3, 200, 500)
    assert len(words) == len(set(words)) == 500
    assert [len(w) for w in words[:8]] == [3, 4, 5, 6, 3, 4, 5, 6]
    assert set("".join(words)) <= set(gen.LETTERS)
    for line in lines:
        h1, h2 = line.split(" [s] ")
        assert 6 <= len(h1.split()) + len(h2.split()) <= 14
        assert set(line.split()) - {"[s]"} <= set(words)


def test_self_time_on_a_hand_built_span_tree():
    # 0: root [0, 10]; 1: child [1, 4]; 2: grandchild [2, 3]; 3: child [5, 7]
    # 4: second root [20, 30] with overlapping children 5: [21, 25] and 6: [23, 28]
    start = [0.0, 1.0, 2.0, 5.0, 20.0, 21.0, 23.0]
    end = [10.0, 4.0, 3.0, 7.0, 30.0, 25.0, 28.0]
    parent = [-1, 0, 1, 0, -1, 4, 4]
    own = spans.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([5.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    tot = spans.totals(start, end, parent, [0, 1, 2, 1, 0, 2, 2], ["a", "b", "c"], {}, [])
    assert tot["calls"] == {"a": 2, "b": 2, "c": 3}
    assert tot["self_s"] == pytest.approx({"a": 8.0, "b": 4.0, "c": 10.0})


def test_percentiles_follow_the_sample_count_rule():
    assert not stats.supported(99, 90.0) and stats.supported(100, 90.0)
    assert not stats.supported(999, 99.0) and stats.supported(1000, 99.0)
    assert set(stats.summarize(range(99))) == {"n", "p50"}
    assert set(stats.summarize(range(100))) == {"n", "p50", "p90"}
    assert set(stats.summarize(range(1000))) == {"n", "p50", "p90", "p99"}
    values = list(range(1, 101))
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 50.0) == 50
    assert stats.summarize(values)["p50"] == 50.5


def test_tracer_wraps_imported_names_and_restores_them():
    from versebert import evaluation, tokenizer, training

    original = tokenizer.encode
    vocab = tokenizer.train_wordpiece(["اب اب بت"], 20, min_frequency=1)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert training.encode is tokenizer.encode is evaluation.encode
        assert tokenizer.encode is not original
        tokenizer.encode("اب بت", vocab, 8)
        tracer.active = False
        training.encode("اب", vocab, 8)
    finally:
        tracer.uninstall()
    assert training.encode is original and tokenizer.encode is original
    tot = tracer.totals()
    assert tot["calls"]["tokenizer.encode"] == 1
    assert tot["counters"] == {"pieces": 2, "unk_pieces": 0}
    assert tracer.absent == []


def test_missing_targets_are_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("autograd.gone", "versebert.autograd", "gone"),))
    tracer = spans.Tracer("test")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["autograd.gone"]


def test_merges_counts_tokens_past_the_seed_alphabet():
    from versebert import tokenizer

    vocab = tokenizer.train_wordpiece(["اب اب اب بت"], 40, min_frequency=1)
    assert spans.merges(vocab.tokens) == len(vocab) - 7 - 2 * 3


def test_benchmark_json_names_the_reported_metrics():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.per_layer_units()


def test_layer_metrics_per_op():
    tot = {
        "calls": {"autograd.backward": 4, "model.encoder_forward": 32, "tokenizer.train_wordpiece": 0},
        "self_s": {"autograd.backward": 2.0},
        "counters": {"tape_records": 400, "mlm_rows": 100, "masked_tokens": 15},
    }
    m = spans.layer_metrics(tot, ops=4, steps=4, overhead_ms=1.0, overhead_frac=0.1)
    assert m["autograd.backward.calls"] == 1 and m["autograd.backward.self_s"] == 0.5
    assert m["autograd.tape_records_per_step"] == 100
    assert m["model.encoder_forward.calls_per_step"] == 8
    assert m["model.mlm_useful_frac"] == pytest.approx(0.15)
    assert m["tokenizer.merges"] == 0 and m["tokenizer.ms_per_merge"] == 0
    assert np.isfinite(list(m.values())).all()
