from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versebert import corpus, preprocess, tokenizer
from versebert.corpus import (
    ALL_METERS,
    CLASSICAL_METERS,
    SENTIMENTS,
    SUB_METERS,
    VARIANTS,
    VerseRecord,
    generate_synthetic,
    group_sentiment,
    load_corpus,
    split,
    taxonomy,
    task_label,
    write_corpus,
)
from versebert.errors import MalformedRow, MissingColumn, UnknownLabel


class TestTaxonomies:
    def test_label_counts(self):
        assert taxonomy("SentimentT").num_labels == 4
        assert taxonomy("MeterClassical").num_labels == 16
        assert taxonomy("MeterAll").num_labels == 28
        assert taxonomy("SubMeter").num_labels == 25
        assert taxonomy("Gender").num_labels == 2
        assert taxonomy("Rhyme").num_labels == 31

    def test_bijection(self):
        tax = taxonomy("MeterAll")
        for i, name in enumerate(tax.labels):
            assert tax.index(name) == i
            assert tax.name(i) == name

    def test_case_insensitive_task_lookup(self):
        assert taxonomy("rhyme").task_id == "Rhyme"

    def test_variant_count(self):
        assert len(VARIANTS) == 7

    def test_submeters_are_meter_variant_pairs(self):
        for sub in SUB_METERS:
            meter, variant = sub.rsplit(" ", 1)
            assert meter in CLASSICAL_METERS
            assert variant in VARIANTS


def _write(tmp_path, text):
    path = tmp_path / "c.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_two_rows(self, tmp_path):
        path = _write(tmp_path, "hemistich1\themistich2\nقفا نبك\tبسقط اللوى\nليت شعري\t\n")
        store = load_corpus(path)
        assert len(store.records) == 2
        assert [r.verse_id for r in store.records] == [0, 1]
        assert store.records[1].hemistich2 is None

    def test_valid_meter(self, tmp_path):
        path = _write(tmp_path, "hemistich1\tmeter\nقفا نبك\tTaweel\n")
        assert load_corpus(path).records[0].meter == "Taweel"

    def test_unknown_meter(self, tmp_path):
        path = _write(tmp_path, "hemistich1\tmeter\nقفا نبك\tNotAMeter\n")
        with pytest.raises(UnknownLabel, match="line 2"):
            load_corpus(path)

    def test_missing_hemistich1_column(self, tmp_path):
        path = _write(tmp_path, "hemistich2\nبسقط\n")
        with pytest.raises(MissingColumn):
            load_corpus(path)

    def test_wrong_field_count(self, tmp_path):
        path = _write(tmp_path, "hemistich1\tmeter\nقفا\tTaweel\textra\n")
        with pytest.raises(MalformedRow, match="line 2"):
            load_corpus(path)

    def test_too_few_fields(self, tmp_path):
        path = _write(tmp_path, "hemistich1\tmeter\tgender\nقفا\tTaweel\tMale\nنبك\tTaweel\n")
        with pytest.raises(MalformedRow, match="line 3: expected 3 fields, got 2"):
            load_corpus(path)

    def test_column_named_twice(self, tmp_path):
        path = _write(tmp_path, "hemistich1\themistich1\nقفا\tنبك\n")
        with pytest.raises(MalformedRow, match="line 1: unknown or repeated column 'hemistich1'"):
            load_corpus(path)

    def test_round_trip(self, tmp_path):
        store = generate_synthetic(40, seed=3, signal="SubMeter")
        out = tmp_path / "round.tsv"
        write_corpus(store, out)
        again = load_corpus(out)
        assert again.records == store.records


class TestGroupSentiment:
    @pytest.mark.parametrize(
        "topic,expected",
        [
            ("Slander Poems", "Anger"),
            ("Elegy Poems", "Sadness"),
            ("Romantic Poems", "Love"),
            ("Parting Poems", "Love"),
            ("Longing Poems", "Love"),
            ("Spinning Poems", "Love"),
            ("Religious Poems", "Spirituality"),
            ("Invocation Poems", "Spirituality"),
            ("Mercy Poems", "Spirituality"),
        ],
    )
    def test_table_mapping(self, topic, expected):
        assert group_sentiment(topic) == expected
        assert group_sentiment(topic.removesuffix(" Poems")) == expected

    def test_unmapped(self):
        assert group_sentiment("Political") is None
        assert group_sentiment("Political Poems") is None


class TestSplit:
    def test_sizes(self):
        store = generate_synthetic(10, seed=2, signal="gender")
        train, val = split(store, 0.8, seed=0)
        assert (len(train.records), len(val.records)) == (8, 2)

    def test_deterministic(self):
        store = generate_synthetic(50, seed=2, signal="rhyme")
        first = split(store, 0.7, seed=9)
        second = split(store, 0.7, seed=9)
        assert first[0].records == second[0].records
        assert first[1].records == second[1].records

    def test_partition(self):
        store = generate_synthetic(37, seed=4, signal="gender")
        train, val = split(store, 0.6, seed=1)
        ids = sorted(r.verse_id for r in train.records) + sorted(r.verse_id for r in val.records)
        assert sorted(ids) == list(range(37))

    def test_bad_ratio(self):
        store = generate_synthetic(4, seed=0, signal="gender")
        with pytest.raises(ValueError):
            split(store, 1.0, seed=0)


class TestGenerateSynthetic:
    def test_rhyme_label_is_final_letter(self):
        store = generate_synthetic(4, seed=7, signal="rhyme")
        assert len(store.records) == 4
        for r in store.records:
            text = (r.hemistich2 or r.hemistich1).replace(" ", "")
            assert r.rhyme == text[-1]

    def test_gender_balanced(self):
        store = generate_synthetic(100, seed=0, signal="Gender")
        counts = Counter(r.gender for r in store.records)
        assert counts == {"Female": 50, "Male": 50}

    def test_pure_function(self):
        a = generate_synthetic(30, seed=12, signal="MeterAll")
        b = generate_synthetic(30, seed=12, signal="MeterAll")
        assert a.records == b.records
        assert a.provenance == "synthetic(12)"

    def test_meter_labels_valid(self):
        store = generate_synthetic(56, seed=1, signal="MeterAll")
        counts = Counter(r.meter for r in store.records)
        assert set(counts) <= set(ALL_METERS)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_submeter_labels_valid(self):
        store = generate_synthetic(50, seed=1, signal="SubMeter")
        for r in store.records:
            assert f"{r.meter} {r.variant}" in SUB_METERS

    def test_sentiment_topics_map_back(self):
        store = generate_synthetic(40, seed=2, signal="SentimentT")
        counts = Counter(group_sentiment(r.topic) for r in store.records)
        assert set(counts) == set(SENTIMENTS)
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_encoded_lengths_in_range(self):
        store = generate_synthetic(1000, seed=9, signal="rhyme")
        lines = [v.line for v in preprocess.preprocess_corpus(store)]
        vocab = tokenizer.train_wordpiece(lines, 512)
        lengths = [tokenizer.encode(l, vocab, 32).length for l in lines]
        in_range = sum(6 <= n <= 18 for n in lengths)
        assert in_range / len(lengths) >= 0.99


class TestTaskLabel:
    def test_classical_only_for_meter_classical(self):
        rec = VerseRecord(0, "بيت", meter="Muashah")
        assert task_label(rec, "MeterClassical") is None
        assert task_label(rec, "MeterAll") == "Muashah"

    def test_excluded_submeter_combination(self):
        rec = VerseRecord(0, "بيت", meter="Baseet", variant="Majzuu")
        assert task_label(rec, "SubMeter") is None

    def test_sentiment_from_topic(self):
        rec = VerseRecord(0, "بيت", topic="Elegy Poems")
        assert task_label(rec, "SentimentT") == "Sadness"

    def test_value_outside_the_taxonomy_gives_none(self):
        rec = VerseRecord(0, "بيت", meter="Nonesuch", gender="Unknown", rhyme="xy")
        assert [task_label(rec, t) for t in ("MeterAll", "Gender", "Rhyme")] == [None, None, None]

    def test_unmapped_topic_gives_none(self):
        rec = VerseRecord(0, "بيت", topic="Political")
        assert task_label(rec, "SentimentT") is None


@given(st.integers(1, 60), st.integers(0, 2**31), st.sampled_from(corpus.TASK_IDS))
@settings(max_examples=25, deadline=None)
def test_synthetic_split_partition_property(n, seed, signal):
    store = generate_synthetic(n, seed=seed, signal=signal)
    if n < 2:
        return
    train, val = split(store, 0.5, seed=seed)
    assert len(train.records) + len(val.records) == n
    train_ids = {r.verse_id for r in train.records}
    val_ids = {r.verse_id for r in val.records}
    assert not (train_ids & val_ids)
