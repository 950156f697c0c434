import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versebert.corpus import VerseRecord
from versebert.errors import EmptyHemistich
from versebert.preprocess import (
    HEMISTICH_SEP,
    mark_hemistichs,
    preprocess_verse,
    strip_diacritics,
    strip_symbols,
)

DIACRITICS = [chr(c) for c in range(0x064B, 0x0653)] + ["ٰ", "ـ"]
ARABIC = st.characters(min_codepoint=0x0621, max_codepoint=0x064A)
# letters that survive normalization (tatweel U+0640 is stripped as a diacritic)
SURVIVING = st.sampled_from(
    [chr(c) for c in range(0x0621, 0x063B)] + [chr(c) for c in range(0x0641, 0x064B)]
)
NOISY = st.characters(min_codepoint=0x20, max_codepoint=0x06FF)


def allowed_line_chars(line):
    return all(
        0x0621 <= ord(c) <= 0x064A or ord(c) == 0x0671 or c in " []se" for c in line
    )


class TestStripDiacritics:
    def test_empty(self):
        assert strip_diacritics("") == ""

    def test_fatha_marks_removed(self):
        assert strip_diacritics("كَتَبَ") == "كتب"

    def test_tatweel_removed(self):
        assert strip_diacritics("كـتـب") == "كتب"

    @given(st.text(ARABIC, min_size=1, max_size=20), st.data())
    def test_length_shrinks_by_planted_mark_count(self, base, data):
        k = data.draw(st.integers(0, 10))
        marks = data.draw(st.lists(st.sampled_from(DIACRITICS), min_size=k, max_size=k))
        positions = data.draw(
            st.lists(st.integers(0, len(base)), min_size=k, max_size=k)
        )
        text = base
        for mark, pos in zip(marks, sorted(positions, reverse=True)):
            text = text[:pos] + mark + text[pos:]
        # oracle: count planted marks with an independent scan
        planted = sum(1 for c in text if c in DIACRITICS)
        assert len(strip_diacritics(text)) == len(text) - planted

    @given(st.text(NOISY, max_size=40))
    def test_idempotent(self, text):
        once = strip_diacritics(text)
        assert strip_diacritics(once) == once
        assert len(once) <= len(text)


class TestStripSymbols:
    def test_nothing_whitelisted(self):
        assert strip_symbols("abc123") == ""

    def test_punctuation_removed(self):
        assert strip_symbols("قال: نعم؟") == "قال نعم"

    def test_markers_dropped_when_disabled(self):
        assert strip_symbols("قال [s] نعم") == "قال نعم"

    @given(st.text(NOISY, max_size=60))
    def test_only_arabic_and_spaces_survive(self, text):
        out = strip_symbols(text)
        assert all(0x0621 <= ord(c) <= 0x064A or ord(c) == 0x0671 or c == " " for c in out)
        assert "  " not in out
        assert out == out.strip()

    @given(st.text(NOISY, max_size=60))
    def test_idempotent(self, text):
        once = strip_symbols(text)
        assert strip_symbols(once) == once
        assert len(once) <= len(text)


class TestMarkHemistichs:
    def test_both_present(self):
        assert mark_hemistichs("قفا نبك", "بسقط اللوى") == "قفا نبك [s] بسقط اللوى"

    def test_absent_second(self):
        assert mark_hemistichs("قفا نبك", None) == "قفا نبك [s] [e]"

    def test_empty_first_raises(self):
        with pytest.raises(EmptyHemistich):
            mark_hemistichs("", "بسقط")


class TestPreprocessVerse:
    def test_diacritized_verse(self):
        rec = VerseRecord(0, "قِفَا نَبْكِ", "بِسِقْطِ اللِّوَى")
        out = preprocess_verse(rec)
        assert out.line == "قفا نبك [s] بسقط اللوى"
        assert out.line.count(HEMISTICH_SEP) == 1

    def test_punctuation_only_second_hemistich_becomes_absent(self):
        rec = VerseRecord(3, "قفا نبك", "؟!، 123")
        assert preprocess_verse(rec).line == "قفا نبك [s] [e]"

    def test_empty_first_raises(self):
        with pytest.raises(EmptyHemistich):
            preprocess_verse(VerseRecord(0, "123 abc", "نعم"))

    def test_stray_markers_in_hemistich_dissolve(self):
        rec = VerseRecord(0, "قفا [s] نبك", "ليل [e]")
        line = preprocess_verse(rec).line
        assert line.count("[s]") == 1
        assert "[e]" not in line

    @given(
        st.text(NOISY, max_size=30),
        st.one_of(st.none(), st.text(NOISY, max_size=30)),
        st.text(SURVIVING, min_size=1, max_size=5),
    )
    @settings(max_examples=300)
    def test_invariants_on_fuzzed_records(self, h1, h2, anchor):
        # anchor guarantees the first hemistich survives stripping
        record = VerseRecord(0, h1 + anchor, h2)
        line = preprocess_verse(record).line
        assert line.count("[s]") == 1
        assert line.count("[e]") in (0, 1)
        if "[e]" in line:
            assert line.endswith("[s] [e]")
        assert allowed_line_chars(line)
        assert not re.search(r"[ً-ْٰـ]", line)

    @given(st.text(NOISY, max_size=30), st.one_of(st.none(), st.text(NOISY, max_size=30)))
    @settings(max_examples=200)
    def test_pure_function(self, h1, h2):
        rec = VerseRecord(0, h1, h2)
        try:
            first = preprocess_verse(rec).line
        except EmptyHemistich:
            with pytest.raises(EmptyHemistich):
                preprocess_verse(rec)
            return
        assert preprocess_verse(rec).line == first
