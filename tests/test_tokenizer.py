import heapq
import os
import random
from fractions import Fraction

import pytest
import seed_tokenizer
from decoding import IdOutOfRange, decode
from hypothesis import example, given, settings
from hypothesis import strategies as st

from versebert import tokenizer
from versebert.errors import CorruptFile, EmptyCorpus, ShapeMismatch
from versebert.tokenizer import (
    CLS_ID,
    E_ID,
    MAX_WORD_CHARS,
    PAD_ID,
    RESERVED,
    SEP_ID,
    S_ID,
    UNK_ID,
    Vocab,
    _score_key,
    _score_shift,
    encode,
    train_wordpiece,
    wordpiece_word,
)

ARABIC = st.characters(min_codepoint=0x0621, max_codepoint=0x064A)
FEW_LETTERS = "ابتث"


@st.composite
def small_corpora(draw):
    """Lines over 1-4 letters; so few letters give repeated letters (overlapping
    pairs) and score ties in most draws."""
    letters = FEW_LETTERS[: draw(st.integers(1, 4))]
    word = st.text(st.sampled_from(letters), min_size=1, max_size=8)
    return draw(st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join), min_size=1, max_size=5))


def zipf_lines(seed: int, n_lines: int, n_types: int) -> list[str]:
    """Lines of words drawn by rank r with probability proportional to 1/r over
    a seeded lexicon of 8 letters, like the Zipfian benchmark corpus in small."""
    rng = random.Random(seed)
    letters = "ابتثجحخد"
    lexicon = ["".join(rng.choice(letters) for _ in range(2 + r % 5)) for r in range(n_types)]
    weights = [1.0 / (r + 1) for r in range(n_types)]
    return [" ".join(rng.choices(lexicon, weights, k=rng.randint(3, 8))) for _ in range(n_lines)]


def seed_size(lines) -> int:
    """Vocabulary size before any merge: reserved tokens plus both unit forms."""
    return len(RESERVED) + 2 * len({ch for line in lines for ch in line.replace(" ", "")})


def seq_invariants_hold(seq, vocab_size):
    ids = list(seq.ids)
    mask = list(seq.attention_mask)
    n = sum(mask)
    assert len(ids) == len(mask) == seq.max_len
    assert mask == [1] * n + [0] * (seq.max_len - n)  # prefix of ones
    assert ids[0] == CLS_ID
    assert ids[n - 1] == SEP_ID
    assert ids.count(SEP_ID) == 1
    assert PAD_ID not in ids[:n]
    assert all(i == PAD_ID for i in ids[n:])
    assert all(0 <= i < vocab_size for i in ids)


class TestTrainWordpiece:
    def test_reserved_ids(self):
        vocab = train_wordpiece(["اب اب"], 20)
        assert vocab.tokens[:7] == RESERVED

    def test_single_line_reference(self):
        # Hand-traced merge order for the corpus ["ابا ابا"]: both candidate
        # pairs score 2/4, the tie breaks to the lexicographically smaller
        # merged token "##با" ('#' sorts before Arabic letters), and the next
        # merge yields the whole word.
        vocab = train_wordpiece(["ابا ابا"], 13, min_frequency=2)
        assert vocab.tokens[7:] == ("ا", "ب", "##ا", "##ب", "##با", "ابا")

    def test_no_merge_budget(self):
        # alphabet of 3 chars, target exactly 7 + 2*3: seed only, no merges
        vocab = train_wordpiece(["ابت ابت ابت"], 13)
        assert len(vocab) == 13
        assert set(vocab.tokens[7:]) == {"ا", "ب", "ت", "##ا", "##ب", "##ت"}

    def test_min_frequency_blocks_hapax_merges(self):
        vocab = train_wordpiece(["ابت"], 30, min_frequency=2)
        assert len(vocab) == 13  # seed alphabet only

    def test_markers_not_trainable(self):
        vocab = train_wordpiece(["اب [s] اب", "اب [s] [e]"], 40)
        assert "[" not in {c for t in vocab.tokens[7:] for c in t}

    def test_no_merge_rebuilds_a_reserved_token(self):
        # "[" + "##s]" used to merge into a second "[s]" and end in
        # ValueError("duplicate token in vocabulary").
        vocab = train_wordpiece(["تا [s]بب ت [s]بب تا", "[s]بب [s]بب ت"], 80, min_frequency=1)
        assert set(vocab.tokens[7:]).isdisjoint(RESERVED)
        assert "[s]بب" in vocab.tokens  # the word is still learnt, past the skipped "[s]"

    @given(st.lists(st.lists(st.lists(st.sampled_from(RESERVED + ("ت", "ب", "[", "]")), min_size=1, max_size=4)
                             .map("".join), min_size=1, max_size=6).map(" ".join), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_reserved_tokens_are_never_trained(self, lines):
        if not any(w not in RESERVED for line in lines for w in line.split()):
            return
        vocab = train_wordpiece(lines, 120, min_frequency=1)
        assert set(vocab.tokens[7:]).isdisjoint(RESERVED)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_wordpiece(["[s] [e]", ""], 20)

    def test_deterministic(self):
        lines = ["ابا باب ابا", "باب ابا اباب"]
        assert train_wordpiece(lines, 30).tokens == train_wordpiece(lines, 30).tokens

    @pytest.mark.parametrize("lines", [["ابت"], ["ابت ابت", "بت"], ["اااا ااا"], ["ابا باب ابا", "باب ابا اباب"]])
    def test_min_frequency_zero_equals_one(self, lines):
        # Only pairs that occur can merge: a pair whose count fell to 0 after
        # an earlier merge must not be taken at min_frequency 0.
        assert train_wordpiece(lines, 80, min_frequency=0).tokens == train_wordpiece(lines, 80, min_frequency=1).tokens


class TestTrainerMatchesSeedTrainer:
    """The incremental trainer against the full-recount trainer it replaced."""

    @given(small_corpora(), st.integers(0, 3), st.integers(-3, 40))
    @example(["اااا اااا ااا"], 1, 10)
    @example(["اااا ابابا", "بااا اااا"], 0, 40)
    @settings(max_examples=400, deadline=None)
    def test_identical_tokens(self, lines, min_frequency, extra):
        target = seed_size(lines) + extra
        assert (train_wordpiece(lines, target, min_frequency).tokens
                == seed_tokenizer.train_wordpiece(lines, target, min_frequency).tokens)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_identical_tokens_on_zipfian_corpus(self, seed):
        lines = zipf_lines(seed, 300, 400)
        new = train_wordpiece(lines, 160)
        assert len(new) == 160
        assert new.tokens == seed_tokenizer.train_wordpiece(lines, 160).tokens

    def test_identical_tokens_when_the_heap_is_compacted(self, monkeypatch):
        builds = []
        heapify = heapq.heapify
        monkeypatch.setattr(heapq, "heapify", lambda heap: (builds.append(len(heap)), heapify(heap)))
        lines = zipf_lines(3, 300, 400)
        new = train_wordpiece(lines, 300)
        monkeypatch.undo()
        assert len(builds) > 10  # the first builds the heap; every later one compacts it
        assert new.tokens == seed_tokenizer.train_wordpiece(lines, 300).tokens


class TestEncode:
    def test_empty_line(self):
        vocab = train_wordpiece(["اب اب"], 20)
        seq = encode("", vocab, 8)
        assert seq.ids == (CLS_ID, SEP_ID) + (PAD_ID,) * 6
        assert seq.attention_mask == (1, 1, 0, 0, 0, 0, 0, 0)

    def test_truncation(self):
        vocab = train_wordpiece(["ا"*1 + " " + "ب"*1], 20, min_frequency=1)
        long_line = " ".join(["ا"] * 40)
        seq = encode(long_line, vocab, 32)
        assert seq.length == 32
        assert sum(seq.attention_mask) == 32
        assert seq.ids[-1] == SEP_ID

    def test_reference_line(self):
        vocab = train_wordpiece(["ابا ابا"], 13, min_frequency=2)
        word_id = vocab.token_index["ابا"]
        seq = encode("ابا [s] ابا", vocab, 8)
        assert seq.ids == (CLS_ID, word_id, S_ID, word_id, SEP_ID, PAD_ID, PAD_ID, PAD_ID)

    def test_unknown_word(self):
        vocab = train_wordpiece(["اب اب"], 20)
        seq = encode("xyz", vocab, 8)
        assert seq.ids[1] == UNK_ID

    def test_very_long_word_falls_back_to_unk(self):
        vocab = train_wordpiece(["اب اب"], 20)
        seq = encode("ا" * 200, vocab, 8)
        assert seq.ids[1] == UNK_ID

    def test_reserved_token_inside_a_word_is_not_a_piece(self):
        vocab = train_wordpiece(["اب اب"], 20)
        seq = encode("[PAD]اب", vocab, 8)
        seq_invariants_hold(seq, len(vocab))
        assert seq.ids[:3] == (CLS_ID, UNK_ID, SEP_ID)

    @given(st.lists(st.sampled_from(RESERVED) | st.sampled_from(["ا", "ب", "اب", "[", "s]"]), min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_no_piece_of_a_longer_word_is_reserved(self, parts):
        word = "".join(parts)
        vocab = train_wordpiece([f"{word} {word} [s]ا"], 60, min_frequency=1)
        pieces = wordpiece_word(word, vocab)
        assert pieces == [UNK_ID] or min(pieces) > E_ID

    def test_frame_tokens_in_text_encode_as_unk(self):
        vocab = train_wordpiece(["اب اب"], 20)
        seq = encode("[SEP] اب [CLS] [PAD] [s]", vocab, 16)
        seq_invariants_hold(seq, len(vocab))
        assert seq.ids[1:7] == (UNK_ID, vocab.token_index["اب"], UNK_ID, UNK_ID, S_ID, SEP_ID)

    @given(st.text(st.characters(min_codepoint=0x20, max_codepoint=0x06FF), max_size=60))
    @settings(max_examples=300)
    def test_invariants_on_arbitrary_text(self, text):
        vocab = train_wordpiece(["ابا باب تاب"], 40, min_frequency=1)
        seq = encode(text, vocab, 16)
        seq_invariants_hold(seq, len(vocab))

    @given(st.lists(st.text(ARABIC, min_size=1, max_size=6), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_greedy_pieces_concatenate_to_word(self, words):
        line = " ".join(words)
        vocab = train_wordpiece([line + " " + line], 500, min_frequency=1)
        for word in words:
            from versebert.tokenizer import wordpiece_word

            ids = wordpiece_word(word, vocab)
            assert UNK_ID not in ids
            rebuilt = "".join(vocab.tokens[i].removeprefix("##") for i in ids)
            assert rebuilt == word

    def test_single_characters_always_encodable(self):
        lines = ["ابجد هوز حطي"]
        vocab = train_wordpiece(lines, 60, min_frequency=1)
        for ch in set("".join(lines.copy())) - {" "}:
            seq = encode(ch, vocab, 8)
            assert UNK_ID not in seq.ids


class TestEncodeMatchesSeedEncoder:
    """The memoising encoder against the per-occurrence encoder it replaced."""

    TOKENS = train_wordpiece(zipf_lines(2, 200, 300), 90).tokens
    WORD = st.one_of(
        st.sampled_from(RESERVED),
        st.text(st.sampled_from("ابتثجحخد"), min_size=1, max_size=8),
        st.integers(MAX_WORD_CHARS - 1, MAX_WORD_CHARS + 2).map(lambda n: "ا" * n),
        st.text(st.characters(min_codepoint=0x21, max_codepoint=0x06FF), min_size=1, max_size=6),
    )

    @given(st.lists(WORD, max_size=12), st.lists(st.integers(0, 11), max_size=8), st.integers(2, 24))
    @settings(max_examples=300, deadline=None)
    def test_identical_ids_on_arbitrary_words(self, words, repeats, max_len):
        words += [words[i] for i in repeats if i < len(words)]
        line = " ".join(words)
        vocab = Vocab(self.TOKENS, len(self.TOKENS))
        expected = seed_tokenizer.encode(line, vocab, max_len)
        assert encode(line, vocab, max_len) == expected  # cold cache
        assert encode(line, vocab, max_len) == expected  # every word cached

    @given(st.text(st.characters(min_codepoint=0x09, max_codepoint=0x06FF), max_size=80), st.integers(2, 40))
    @settings(max_examples=200, deadline=None)
    def test_identical_ids_on_arbitrary_text(self, text, max_len):
        vocab = Vocab(self.TOKENS, len(self.TOKENS))
        assert encode(text, vocab, max_len) == seed_tokenizer.encode(text, vocab, max_len)

    def test_identical_ids_on_zipfian_corpus(self):
        lines = zipf_lines(11, 3000, 2000)
        vocab = train_wordpiece(lines[:400], 200)
        expected = [seed_tokenizer.encode(line, vocab, 32) for line in lines]
        assert [encode(line, vocab, 32) for line in lines] == expected
        assert len(vocab.segment_cache) == len({w for line in lines for w in line.split()})

    def test_cache_stops_at_its_cap_and_still_encodes_identically(self, monkeypatch):
        monkeypatch.setattr(tokenizer, "SEGMENT_CACHE_WORDS", 50)
        lines = zipf_lines(4, 300, 400)
        assert len({w for line in lines for w in line.split()}) > 50
        vocab = train_wordpiece(lines, 120)
        expected = [seed_tokenizer.encode(line, vocab, 16) for line in lines]
        for _ in range(2):
            assert [encode(line, vocab, 16) for line in lines] == expected
            assert len(vocab.segment_cache) == 50

    def test_cache_leaves_equality_hash_and_digest_unchanged(self):
        a, b = Vocab(self.TOKENS, 90), Vocab(self.TOKENS, 90)
        encode("ابا باب [s] تاب", a, 16)
        assert a.segment_cache and not b.segment_cache
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.digest() == b.digest()
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("max_len", [1, 0, -3])
    def test_max_len_below_two_raises(self, max_len):
        with pytest.raises(ShapeMismatch):
            encode("ابا", Vocab(self.TOKENS, 90), max_len)


class TestScoreKey:
    """``_score_key`` must order and tie exactly as the fractions it replaces."""

    @staticmethod
    def assert_like_fractions(u0, x, y):
        shift = _score_shift(u0)
        kx, ky = _score_key(*x, shift), _score_key(*y, shift)
        fx, fy = Fraction(x[0], x[1] * x[2]), Fraction(y[0], y[1] * y[2])
        assert (kx < ky) == (fx > fy) and (kx == ky) == (fx == fy)

    @given(st.integers(1, 2**45), st.data())
    @settings(max_examples=400)
    def test_near_ties_at_large_counts(self, u0, data):
        count = st.integers(1, u0)
        c, a, b = data.draw(count), data.draw(count), data.draw(count)
        k = data.draw(st.integers(1, 6))
        neighbours = [
            (c, a, b),
            (c * k, a * k, b) if a * k <= u0 else (c, a, b),  # the same fraction, larger counts
            (max(1, c * (a - 1) // a), max(1, a - 1), b),  # within about 1/(a*a*b) of it
            (c * (a - 1) // a + 1, max(1, a - 1), b),
            (c + 1, a, b) if c < u0 else (c, a, b),
            (c, a, b + 1) if b < u0 else (c, a, b),
        ]
        for y in neighbours:
            self.assert_like_fractions(u0, (c, a, b), y)

    @pytest.mark.parametrize("u0", [2**40 - 1, 2**40, 10**12])
    def test_adjacent_fractions_at_the_largest_denominators(self, u0):
        # 1/m**2 and 1/((m-1)*(m+1)) differ by 1/(m**2*(m**2-1)), about the
        # 1/u0**4 gap the bound allows; equal scores at other counts must tie.
        m = u0 - 1
        for c in (1, 2, u0 // 3, u0 - 1):
            self.assert_like_fractions(u0, (c, m, m), (c, m - 1, m + 1))
            self.assert_like_fractions(u0, (c, u0, u0), (c, u0, u0 - 1))
            self.assert_like_fractions(u0, (c, u0, u0), (c + 1, u0, u0))
        self.assert_like_fractions(u0, (u0 // 2, u0 // 2, 4), (u0 // 4 * 2, u0 // 4 * 2, 4))


class TestDecode:
    def test_round_trip_in_vocab(self):
        vocab = train_wordpiece(["ابا باب ابا باب"], 60, min_frequency=1)
        line = "ابا [s] باب"
        assert decode(encode(line, vocab, 16).ids, vocab) == line

    def test_cls_sep_only(self):
        vocab = train_wordpiece(["اب اب"], 20)
        assert decode([CLS_ID, SEP_ID], vocab) == ""

    def test_unk_renders_literally(self):
        vocab = train_wordpiece(["اب اب"], 20)
        seq = encode("اب xyz اب", vocab, 16)
        assert "[UNK]" in decode(seq.ids, vocab)

    def test_id_out_of_range(self):
        vocab = train_wordpiece(["اب اب"], 20)
        with pytest.raises(IdOutOfRange):
            decode([CLS_ID, len(vocab), SEP_ID], vocab)


class TestVocabIO:
    def test_save_load_round_trip(self, tmp_path):
        vocab = train_wordpiece(["ابا باب ابا"], 40)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = Vocab.load(path)
        assert again.tokens == vocab.tokens
        assert again.digest() == vocab.digest()

    def test_digest_changes_with_content(self):
        a = train_wordpiece(["ابا ابا"], 13)
        b = train_wordpiece(["ابت ابت"], 13)
        assert a.digest() != b.digest()

    def test_reserved_prefix_enforced(self):
        with pytest.raises(ValueError):
            Vocab(("x",) + RESERVED[1:], 8)

    def test_save_writes_canonical_bytes_and_no_temp_file(self, tmp_path):
        vocab = train_wordpiece(["ابا باب ابا"], 40)
        path = tmp_path / "vocab.txt"
        path.write_text("stale\n", encoding="utf-8")
        vocab.save(path)
        assert path.read_bytes() == ("\n".join(vocab.tokens) + "\n").encode("utf-8")
        assert Vocab.load(path).digest() == vocab.digest()
        assert os.listdir(tmp_path) == ["vocab.txt"]

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        old = train_wordpiece(["ابا ابا"], 13)
        path = tmp_path / "vocab.txt"
        old.save(path)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            train_wordpiece(["ابت ابت"], 13).save(path)
        assert Vocab.load(path).digest() == old.digest()
        assert os.listdir(tmp_path) == ["vocab.txt"]

    @pytest.mark.parametrize("content", [
        "a\nb\nc\n".encode(),
        ("\n".join(RESERVED + ("ا", "ا")) + "\n").encode(),
        ("\n".join(RESERVED) + "\n").encode() + b"\xff\xfe\n",
    ], ids=["no-reserved-prefix", "duplicate-token", "not-utf8"])
    def test_load_malformed_raises_corrupt_file(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        with pytest.raises(CorruptFile, match="bad.txt"):
            Vocab.load(path)
