"""Length-sorted corpus scoring, the one-regex symbol filter and the array
confusion counter, each checked against the code it replaced
(``seed_evaluation``); plus predict's error rows and atomic report writes."""

import io
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from versebert import cli, corpus, evaluation, model as mdl, preprocess, training
from versebert.errors import LabelOutOfRange

import seed_evaluation


@pytest.fixture(scope="module")
def scored(synth_rhyme):
    """The planted-rhyme corpus, its vocab and a checkpoint fine-tuned on it
    just long enough to predict several different rhymes."""
    store, _, vocab = synth_rhyme
    cfg = mdl.tiny_config(vocab_size=len(vocab))
    base = training.checkpoint_from_params(mdl.init_params(cfg, np.random.default_rng(5)), cfg, vocab.digest(), 0)
    tax = corpus.taxonomy("rhyme")
    pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, tax.task_id)]
    tuned = training.finetune(base, pairs, tax, vocab, training.tiny_train_config(max_steps=80, lr=3e-3, seed=2))
    return store, tax, vocab, tuned


def _record_batches(monkeypatch) -> list:
    """(seqs, logits) of every later ``predict_logits`` call, in call order."""
    calls, predict_logits = [], mdl.predict_logits

    def recording(seqs, *args):
        logits = predict_logits(seqs, *args)
        calls.append((list(seqs), logits))
        return logits

    monkeypatch.setattr(mdl, "predict_logits", recording)
    return calls


def _padded_positions(calls) -> int:
    return sum(int(mask.size - mask.sum()) for mask in (mdl.stack_batch(seqs)[1] for seqs, _ in calls))


class TestSortedChunks:
    def test_labels_and_logits_match_file_order_chunks(self, scored, monkeypatch):
        store, tax, vocab, ckpt = scored
        calls = _record_batches(monkeypatch)
        got = evaluation.predict_corpus(ckpt, store, tax, vocab)
        n_sorted = len(calls)
        want = seed_evaluation.predict_corpus(ckpt, store, tax, vocab)
        lengths = [s.length for seqs, _ in calls[n_sorted:] for s in seqs]
        assert len(lengths) >= 3 * evaluation.EVAL_CHUNK and lengths != sorted(lengths)
        assert got == want
        rows = {s: row for seqs, logits in calls[:n_sorted] for s, row in zip(seqs, logits)}
        for seqs, logits in calls[n_sorted:]:
            for s, row in zip(seqs, logits):
                np.testing.assert_allclose(rows[s], row, rtol=0, atol=1e-12)

    def test_each_label_is_the_verse_scored_alone(self, scored, monkeypatch):
        store, tax, vocab, ckpt = scored
        preds, _ = evaluation.predict_corpus(ckpt, store, tax, vocab)
        calls = _record_batches(monkeypatch)
        seed_evaluation.predict_corpus(ckpt, store, tax, vocab)
        seqs = [s for batch, _ in calls for s in batch]
        params = ckpt.to_params()
        alone = [int(np.argmax(mdl.predict_logits([s], ckpt.model_config, params, params.heads[tax.task_id])))
                 for s in seqs]
        assert preds == alone

    def test_labels_come_back_in_corpus_order(self, scored):
        store, tax, vocab, ckpt = scored
        preds, truths = evaluation.predict_corpus(ckpt, store, tax, vocab)
        backwards = corpus.CorpusStore(store.records[::-1], "reversed")
        rev_preds, rev_truths = evaluation.predict_corpus(ckpt, backwards, tax, vocab)
        assert len(set(preds)) > 1
        assert (rev_preds, rev_truths) == (preds[::-1], truths[::-1])

    def test_strictly_less_padding_on_mixed_lengths(self, scored, monkeypatch):
        store, tax, vocab, ckpt = scored
        calls = _record_batches(monkeypatch)
        evaluation.predict_corpus(ckpt, store, tax, vocab)
        sorted_pad = _padded_positions(calls)
        calls.clear()
        seed_evaluation.predict_corpus(ckpt, store, tax, vocab)
        assert sorted_pad < _padded_positions(calls)

    @settings(max_examples=15, deadline=None)
    @given(picks=st.lists(st.integers(0, 119), min_size=1, max_size=90))
    def test_never_more_padding_than_file_order(self, scored, picks):
        store, tax, vocab, ckpt = scored
        sub = corpus.CorpusStore(tuple(store.records[i] for i in picks), "picked")
        with pytest.MonkeyPatch.context() as mp:
            calls = _record_batches(mp)
            got = evaluation.predict_corpus(ckpt, sub, tax, vocab)
            sorted_pad = _padded_positions(calls)
            calls.clear()
            want = seed_evaluation.predict_corpus(ckpt, sub, tax, vocab)
            assert sorted_pad <= _padded_positions(calls)
        assert got == want


# Edge code points of the whitelist and the diacritic set, whitespace, Latin,
# digits, tatweel and the marker pieces.
_EDGE_TEXT = st.lists(
    st.sampled_from(["\u0620", "\u0621", "\u064a", "\u064b", "\u0670", "\u0671", "\u0672", "\u0640",
                     "\t", "\n", "\r", " ", "\u00a0", "a", "Z", "7", ".", "[", "]", "s", "e",
                     "[s]", "[e]", "\u0642\u0641\u0627", "\u0646\u0628\u0643"]),
    max_size=30,
).map("".join)


class TestRegexFilter:
    @settings(max_examples=300, deadline=None)
    @given(text=_EDGE_TEXT | st.text(max_size=40))
    def test_same_text_as_per_character_filter(self, text):
        assert preprocess.strip_symbols(text) == seed_evaluation.strip_symbols(text, False)
        assert preprocess.clean_hemistich(text) == seed_evaluation.clean_hemistich(text)


class TestArrayConfusion:
    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 7), data=st.data())
    def test_same_counts_as_pair_loop(self, k, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=60))
        truths, preds = [t for t, _ in pairs], [p for _, p in pairs]
        got = evaluation.confusion_matrix(preds, truths, k)
        want = seed_evaluation.confusion_matrix(preds, truths, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 5), pairs=st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), min_size=1,
                                              max_size=20))
    def test_first_bad_pair_raises_the_same_message(self, k, pairs):
        assume(any(not (0 <= t < k and 0 <= p < k) for t, p in pairs))
        truths, preds = [t for t, _ in pairs], [p for _, p in pairs]
        with pytest.raises(LabelOutOfRange) as want:
            seed_evaluation.confusion_matrix(preds, truths, k)
        with pytest.raises(LabelOutOfRange) as got:
            evaluation.confusion_matrix(preds, truths, k)
        assert str(got.value) == str(want.value)


@pytest.fixture()
def saved(scored, tmp_path):
    store, tax, vocab, ckpt = scored
    paths = {"ckpt": tmp_path / "rhyme.ckpt", "vocab": tmp_path / "vocab.txt", "corpus": tmp_path / "c.tsv"}
    training.save_checkpoint(ckpt, paths["ckpt"])
    vocab.save(paths["vocab"])
    corpus.write_corpus(store, paths["corpus"])
    return store, paths


def _predict(paths, monkeypatch, capsys, stdin: str):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(["predict", "--ckpt", str(paths["ckpt"]), "--vocab", str(paths["vocab"]), "--task", "rhyme"])
    return code, capsys.readouterr().out.splitlines()


class TestPredictErrorRows:
    def test_bad_line_gets_an_error_row_and_reading_goes_on(self, saved, monkeypatch, capsys):
        store, paths = saved
        good = [r.hemistich1 + "\t" + (r.hemistich2 or "") for r in store.records[:2]]
        alone = [_predict(paths, monkeypatch, capsys, line + "\n") for line in good]
        assert [code for code, _ in alone] == [0, 0]
        code, rows = _predict(paths, monkeypatch, capsys, f"{good[0]}\nabc 123\t!!\n{good[1]}\n")
        assert code == 1
        assert rows == [alone[0][1][0], "ERROR\tEmptyHemistich: first hemistich is empty after normalization",
                        alone[1][1][0]]


class TestAtomicReports:
    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_failed_write_leaves_old_file_and_no_temp_file(self, saved, tmp_path, monkeypatch, capsys, failing):
        _, paths = saved
        out = tmp_path / "report.json"
        written = [out, tmp_path / "report.json.confusion.csv", tmp_path / "report.json.manifest.json"]
        for path in written:
            path.write_text("old\n", encoding="utf-8")
        before = set(os.listdir(tmp_path))
        fsync, calls = os.fsync, []

        def fail_once(fd):
            calls.append(fd)
            if len(calls) == failing + 1:
                raise OSError("disk full")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_once)
        assert cli.main(["evaluate", "--ckpt", str(paths["ckpt"]), "--corpus", str(paths["corpus"]),
                         "--task", "rhyme", "--vocab", str(paths["vocab"]), "--out", str(out)]) == 1
        assert "OSError: disk full" in capsys.readouterr().err
        assert set(os.listdir(tmp_path)) == before
        assert [p.read_text(encoding="utf-8") == "old\n" for p in written] == [i >= failing for i in range(3)]
