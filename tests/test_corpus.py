import random

import pytest

from aslmt.corpus import (
    HAS_COMMA,
    HAS_GESTURE,
    Corpus,
    SentencePair,
    TokenKind,
    filter_subset,
    load_corpus,
    save_corpus,
    split_dataset,
    tokenize_asl,
    tokenize_english,
)
from aslmt.errors import CorpusFormatError, MalformedGlossError, SplitTooSmallError


class TestTokenizeEnglish:
    def test_question_sentence(self):
        seq = tokenize_english("Do you like learning sign language?")
        assert seq.surfaces == ("do", "you", "like", "learning", "sign", "language")

    def test_color_question(self):
        assert tokenize_english("You like brown color?").surfaces == ("you", "like", "brown", "color")

    def test_empty_input(self):
        assert len(tokenize_english("")) == 0
        assert len(tokenize_english("   ")) == 0

    def test_keeps_internal_apostrophes(self):
        assert tokenize_english("Don't stop.").surfaces == ("don't", "stop")

    def test_strips_repeated_terminal_punctuation(self):
        assert tokenize_english("Really?!").surfaces == ("really",)

    def test_token_kinds(self):
        assert all(t.kind is TokenKind.WORD for t in tokenize_english("He fell down."))


class TestTokenizeAsl:
    def test_gesture_and_comma(self):
        seq = tokenize_asl("WRISTWATCH [point], WHO GIVE-YOU?")
        assert seq.surfaces == ("WRISTWATCH", "[point]", ",", "WHO", "GIVE-YOU")
        assert [t.kind for t in seq] == [
            TokenKind.SIGN,
            TokenKind.GESTURE,
            TokenKind.COMMA,
            TokenKind.SIGN,
            TokenKind.SIGN,
        ]

    def test_plain_question(self):
        assert tokenize_asl("YOU LIKE LEARN SIGN?").surfaces == ("YOU", "LIKE", "LEARN", "SIGN")

    def test_single_sign_statement(self):
        assert tokenize_asl("FELL.").surfaces == ("FELL",)

    def test_unclosed_bracket(self):
        with pytest.raises(MalformedGlossError, match=r"\[poin"):
            tokenize_asl("WHO [poin GIVE-YOU?")

    def test_bracket_open_at_end(self):
        with pytest.raises(MalformedGlossError):
            tokenize_asl("WHO [")

    def test_nested_bracket(self):
        with pytest.raises(MalformedGlossError):
            tokenize_asl("A [x[y]] B")

    def test_detached_comma(self):
        assert tokenize_asl("A , B").surfaces == ("A", ",", "B")

    def test_gesture_never_merges_with_neighbor(self):
        seq = tokenize_asl("[nod]YES")
        assert seq.surfaces == ("[nod]", "YES")


SIGN_ALPHABET = ["WHO", "GIVE-YOU", "HOUSE", "A", "B2", "[point]", "[head_shake]", ","]
WORD_ALPHABET = ["who", "gave", "you", "that", "it's", "x1"]


class TestRoundTrip:
    def test_asl_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            tokens = [rng.choice(SIGN_ALPHABET) for _ in range(rng.randint(0, 8))]
            seq = tokenize_asl(" ".join(tokens))
            assert tokenize_asl(seq.render()) == seq

    def test_english_round_trip(self):
        rng = random.Random(8)
        for _ in range(200):
            tokens = [rng.choice(WORD_ALPHABET) for _ in range(rng.randint(0, 8))]
            seq = tokenize_english(" ".join(tokens))
            assert tokenize_english(seq.render()) == seq

    def test_gesture_count_matches_open_brackets(self):
        rng = random.Random(9)
        for _ in range(200):
            tokens = [rng.choice(SIGN_ALPHABET) for _ in range(rng.randint(0, 8))]
            text = " ".join(tokens)
            seq = tokenize_asl(text)
            gestures = sum(1 for t in seq if t.kind is TokenKind.GESTURE)
            assert gestures == text.count("[")


def _toy_corpus(n: int) -> Corpus:
    pairs = tuple(
        SentencePair(i + 1, tokenize_asl(f"S{i} T{i}"), tokenize_english(f"w{i} v{i}"))
        for i in range(n)
    )
    return Corpus(pairs)


class TestSplitDataset:
    def test_large_corpus_sizes(self):
        split = split_dataset(_toy_corpus(579), seed=0)
        assert (len(split.train), len(split.dev), len(split.test)) == (453, 10, 116)

    def test_small_corpus_rule(self):
        split = split_dataset(_toy_corpus(10), seed=0)
        assert (len(split.train), len(split.dev), len(split.test)) == (7, 1, 2)

    def test_same_seed_is_identical(self):
        corpus = _toy_corpus(57)
        a = split_dataset(corpus, seed=3)
        b = split_dataset(corpus, seed=3)
        assert [p.pair_id for p in a.train] == [p.pair_id for p in b.train]
        assert [p.pair_id for p in a.dev] == [p.pair_id for p in b.dev]
        assert [p.pair_id for p in a.test] == [p.pair_id for p in b.test]

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_partition(self, seed):
        corpus = _toy_corpus(61)
        split = split_dataset(corpus, seed)
        ids = [p.pair_id for part in (split.train, split.dev, split.test) for p in part]
        assert sorted(ids) == [p.pair_id for p in corpus]

    def test_too_small(self):
        with pytest.raises(SplitTooSmallError):
            split_dataset(_toy_corpus(2), seed=0)


class TestFilterSubset:
    def _wristwatch_corpus(self) -> Corpus:
        pairs = (
            SentencePair(
                1,
                tokenize_asl("WRISTWATCH [point], WHO GIVE-YOU?"),
                tokenize_english("Who gave you that wristwatch?"),
            ),
            SentencePair(2, tokenize_asl("FELL"), tokenize_english("He fell down.")),
        )
        return Corpus(pairs)

    def test_has_gesture_keeps_gesture_pair(self):
        corpus = self._wristwatch_corpus()
        assert [p.pair_id for p in filter_subset(corpus, HAS_GESTURE)] == [1]

    def test_has_comma_keeps_comma_pair(self):
        corpus = self._wristwatch_corpus()
        assert [p.pair_id for p in filter_subset(corpus, HAS_COMMA)] == [1]

    def test_no_matches_gives_empty_corpus(self):
        corpus = Corpus((SentencePair(1, tokenize_asl("FELL"), tokenize_english("he fell")),))
        assert len(filter_subset(corpus, HAS_COMMA)) == 0
        assert len(filter_subset(corpus, HAS_GESTURE)) == 0

    def test_subset_and_idempotence(self):
        corpus = self._wristwatch_corpus()
        once = filter_subset(corpus, HAS_GESTURE)
        assert set(p.pair_id for p in once) <= set(p.pair_id for p in corpus)
        assert filter_subset(once, HAS_GESTURE) == once

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            filter_subset(self._wristwatch_corpus(), "has_question")


class TestCorpusFiles:
    def test_load_gold_pair(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text(
            "# comment line\n"
            "YOU LIKE LEARN SIGN?\tDo you like learning sign language?\n"
            "\n"
            "FELL.\tHe fell down.\n"
            "WRISTWATCH [point], WHO GIVE-YOU?\tWho gave you that wristwatch?\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus[0].sign_side.surfaces == ("YOU", "LIKE", "LEARN", "SIGN")
        assert corpus[0].english_side.surfaces == ("do", "you", "like", "learning", "sign", "language")
        assert [p.pair_id for p in corpus] == [1, 2, 3]

    def test_missing_tab_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("FELL he fell\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":1:"):
            load_corpus(path)

    def test_empty_side_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("FELL\tHe fell.\n\t empty gloss\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2:"):
            load_corpus(path)

    def test_malformed_gloss_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("FELL\tHe fell.\nDOG [point\tthe dog\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r":2: unclosed gesture token '\[point'"):
            load_corpus(path)

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("FELL\tHe fell.\n\n".encode("utf-8") + b"DOG\tthe dog \xff\xfe\nCAT\tcat\n")
        with pytest.raises(CorpusFormatError, match=r":3: not valid UTF-8"):
            load_corpus(path)

    def test_utf8_text_is_read(self, tmp_path):
        corpus = load_corpus_text(tmp_path, "CAF\u00c9\tcaf\u00e9 cr\u00e8me\n")
        assert corpus[0].english_side.surfaces == ("caf\u00e9", "cr\u00e8me")

    def test_save_load_round_trip(self, tmp_path):
        original = load_corpus_text(
            tmp_path,
            "WRISTWATCH [point], WHO GIVE-YOU?\tWho gave you that wristwatch?\n"
            "YOU LIKE LEARN SIGN?\tDo you like learning sign language?\n",
        )
        out = tmp_path / "copy.txt"
        save_corpus(original, out)
        reloaded = load_corpus(out)
        assert [p.sign_side for p in reloaded] == [p.sign_side for p in original]
        assert [p.english_side for p in reloaded] == [p.english_side for p in original]

    def test_duplicate_ids_rejected(self):
        pair = SentencePair(1, tokenize_asl("A"), tokenize_english("a"))
        with pytest.raises(ValueError):
            Corpus((pair, pair))


def load_corpus_text(tmp_path, text: str) -> Corpus:
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    return load_corpus(path)
