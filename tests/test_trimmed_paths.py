"""The one-permutation ``split``, the live-rows-only ``cross_entropy``, the
``None``-returning sentiment lookup and the table-driven ``task_label`` and
``generate_synthetic`` against the code they replaced (``seed_corpus``,
``seed_loss``): the same split membership and order, the same loss and
logit-gradient bits, the same task labels and the same corpus file bytes."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from versebert import autograd as ag
from versebert import corpus
from versebert.autograd import Tensor
from versebert.corpus import ALL_METERS, GENDERS, RHYMES, SENTIMENT_BY_TOPIC, VARIANTS, CorpusStore, VerseRecord

import seed_corpus
import seed_loss

RATIOS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SEEDS = st.integers(0, 2**64)


@given(st.integers(0, 300), RATIOS, SEEDS)
@example(0, 0.5, 0)
@example(1, 0.999, 3)
@example(300, 1e-9, 7)
@settings(max_examples=300, deadline=None)
def test_split_membership_and_order_match(n, ratio, seed):
    store = CorpusStore(tuple(VerseRecord(i, f"بيت {i}") for i in range(n)), "c")
    assert corpus.split(store, ratio, seed) == seed_corpus.split(store, ratio, seed)


def _loss_and_grad(cross_entropy, logits: np.ndarray, targets: np.ndarray) -> tuple[bytes, bytes]:
    leaf = Tensor(logits.copy(), requires_grad=True)
    loss = cross_entropy(leaf, targets)
    ag.backward(loss)
    return loss.data.tobytes(), leaf.grad.tobytes()


@given(st.integers(1, 64), st.integers(2, 600), st.sampled_from([1e-3, 1.0, 50.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_cross_entropy_loss_and_gradient_bits_match(rows, classes, spread, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, spread, size=(rows, classes))
    targets = rng.integers(0, classes, size=rows)
    assert _loss_and_grad(ag.cross_entropy, logits, targets) == _loss_and_grad(seed_loss.cross_entropy, logits, targets)


def _old_group_sentiment(topic):
    try:
        return seed_corpus.group_sentiment(topic)
    except seed_corpus.UnmappedTopic:
        return None


TOPICS = st.builds(
    lambda pad, base, suffix, trail: pad + base + suffix + trail,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(sorted(SENTIMENT_BY_TOPIC)) | st.sampled_from(["Political", "Poems", ""]) | st.text(max_size=8),
    st.sampled_from(["", " Poems", "Poems", " Poems Poems"]),
    st.sampled_from(["", " ", "\n"]),
)
RECORDS = st.builds(
    VerseRecord,
    st.just(0),
    st.just("بيت"),
    meter=st.none() | st.sampled_from(ALL_METERS),
    variant=st.none() | st.sampled_from(VARIANTS),
    rhyme=st.none() | st.sampled_from(RHYMES),
    gender=st.none() | st.sampled_from(GENDERS),
    topic=st.none() | TOPICS,
)


@given(RECORDS)
@settings(max_examples=500, deadline=None)
def test_task_labels_match_for_every_task(record):
    if record.topic is not None:
        assert corpus.group_sentiment(record.topic) == _old_group_sentiment(record.topic)
    for task in corpus.TASK_IDS + tuple(t.lower() for t in corpus.TASK_IDS):
        assert corpus.task_label(record, task) == seed_corpus.task_label(record, task)


@given(st.sampled_from(seed_corpus.TASK_IDS + tuple(t.lower() for t in seed_corpus.TASK_IDS)),
       st.integers(1, 320), st.integers(0, 2**32 - 1))
@example("SentimentT", 1, 0)
@example("submeter", 7, 3)
@example("Rhyme", 64, 11)
@example("MeterAll", 301, 5)
@settings(max_examples=150, deadline=None)
def test_synthetic_corpus_file_bytes_match(task, n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.tsv", Path(tmp) / "old.tsv"
        corpus.write_corpus(corpus.generate_synthetic(n, seed, task), new)
        corpus.write_corpus(seed_corpus.generate_synthetic(n, seed, task), old)
        assert new.read_bytes() == old.read_bytes()
