import math
import random

import pytest

from aslmt.align_model import NULL, SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN, TranslationTable
from aslmt.baselines import (
    BilingualLexicon,
    UnigramCost,
    baseline_asl_to_eng,
    baseline_eng_to_asl,
    load_helper_words,
)
from aslmt.corpus import Corpus, SentencePair, tokenize_asl, tokenize_english
from aslmt.lang_model import PAD_TOKEN, NgramModel

from oracles import best_insertion_by_enumeration


def _unigram_model(counts):
    return NgramModel(1, {(w,): c for w, c in counts.items()})


class TestHelperWords:
    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "helpers.txt"
        path.write_text("# helpers\nthe\n\n  a  \n  # indented comment\nis\n", encoding="utf-8")
        assert load_helper_words(path) == ("the", "a", "is")


class TestBilingualLexicon:
    def test_derived_from_table(self):
        table = TranslationTable(
            {
                ("HOUSE", "house"): 0.9,
                ("HOUSE", "home"): 0.1,
                ("CAT", "house"): 0.2,
                ("CAT", "cat"): 0.8,
                ("HOUSE", NULL): 0.5,
            },
            SIGN_GIVEN_ENGLISH,
        )
        lexicon = BilingualLexicon.from_table(table)
        assert lexicon.to_word("HOUSE") == "house"
        assert lexicon.to_word("CAT") == "cat"
        assert lexicon.to_sign("house") == "HOUSE"
        assert lexicon.to_sign("cat") == "CAT"

    def test_identity_fallback(self):
        lexicon = BilingualLexicon({}, {})
        assert lexicon.to_sign("mystery") == "MYSTERY"
        assert lexicon.to_word("UNKNOWN-SIGN") == "unknown-sign"

    def test_null_never_enters_lexicon(self):
        table = TranslationTable({("S", NULL): 1.0}, SIGN_GIVEN_ENGLISH)
        lexicon = BilingualLexicon.from_table(table)
        assert lexicon.to_word("S") == "s"

    def test_requires_sign_given_english(self):
        table = TranslationTable({("a", "B"): 1.0}, ENGLISH_GIVEN_SIGN)
        with pytest.raises(ValueError):
            BilingualLexicon.from_table(table)


class TestUnigramCost:
    def test_cost_is_negative_log_probability(self):
        model = _unigram_model({"he": 8, "fell": 2})
        cost = UnigramCost(model, threshold=1.0)
        assert cost.cost("he") == pytest.approx(-math.log(0.8), abs=1e-12)
        assert cost.cost("unseen") == pytest.approx(-math.log(1e-7), abs=1e-12)

    def test_threshold_from_corpus_percentile(self):
        corpus = Corpus(
            (SentencePair(1, tokenize_asl("X"), tokenize_english("he he he fell down")),)
        )
        model = _unigram_model({"he": 3, "fell": 1, "down": 1})
        cost = UnigramCost.from_corpus(corpus, model, fraction=0.6)
        # costs sorted: [he, he, he, fell, down] -> 60th percentile is the 3rd
        assert cost.threshold == pytest.approx(cost.cost("he"))

    def test_requires_order_one(self):
        with pytest.raises(ValueError):
            UnigramCost(NgramModel(2, {}), threshold=0.0)


class TestBaselineEngToAsl:
    def _setup(self):
        model = _unigram_model({"he": 50, "fell": 2, "down": 10})
        cost = UnigramCost(model, threshold=cost_between(model, "down", "fell"))
        lexicon = BilingualLexicon({"fell": "FELL"}, {})
        return cost, lexicon

    def test_keeps_only_high_cost_words(self):
        cost, lexicon = self._setup()
        out = baseline_eng_to_asl(tokenize_english("He fell down."), cost, lexicon)
        assert out.surfaces == ("FELL",)

    def test_fallback_keeps_single_costliest_word(self):
        model = _unigram_model({"he": 50, "fell": 2, "down": 10})
        cost = UnigramCost(model, threshold=1e9)
        lexicon = BilingualLexicon({"fell": "FELL"}, {})
        out = baseline_eng_to_asl(tokenize_english("He fell down."), cost, lexicon)
        assert out.surfaces == ("FELL",)

    def test_empty_input(self):
        cost, lexicon = self._setup()
        assert baseline_eng_to_asl(tokenize_english(""), cost, lexicon).surfaces == ()

    def test_output_is_order_preserving_subsequence(self):
        rng = random.Random(9)
        model = _unigram_model({w: rng.randint(1, 40) for w in "abcdefg"})
        lexicon = BilingualLexicon({}, {})
        for _ in range(50):
            words = [rng.choice("abcdefg") for _ in range(rng.randint(1, 8))]
            cost = UnigramCost(model, threshold=rng.uniform(0.0, 5.0))
            out = baseline_eng_to_asl(words, cost, lexicon)
            mapped = [w.upper() for w in words]
            it = iter(mapped)
            assert all(s in it for s in out.surfaces)

    def test_raising_threshold_never_lengthens_output(self):
        model = _unigram_model({"a": 30, "b": 10, "c": 3, "d": 1})
        lexicon = BilingualLexicon({}, {})
        words = ["a", "b", "c", "d", "b", "a"]
        lengths = []
        for tau in (0.0, 1.0, 2.0, 3.0, 5.0, 100.0):
            out = baseline_eng_to_asl(words, UnigramCost(model, tau), lexicon)
            lengths.append(len(out))
        assert lengths == sorted(lengths, reverse=True)


def cost_between(model, cheap_word, costly_word):
    low = -model.extension_logprob((), cheap_word)
    high = -model.extension_logprob((), costly_word)
    assert low < high
    return (low + high) / 2


class TestBaselineAslToEng:
    def test_helper_insertion_beats_bare_skeleton(self):
        bigram = NgramModel(
            2, {(PAD_TOKEN, "the"): 9, (PAD_TOKEN, "house"): 1, ("the", "house"): 9}
        )
        lexicon = BilingualLexicon({}, {"HOUSE": "house"})
        out = baseline_asl_to_eng(tokenize_asl("HOUSE"), lexicon, bigram, helpers=("the",))
        assert out.surfaces == ("the", "house")

    def test_empty_helper_list_gives_skeleton(self):
        bigram = NgramModel(2, {})
        lexicon = BilingualLexicon({}, {"HOUSE": "house", "BIG": "big"})
        out = baseline_asl_to_eng(tokenize_asl("HOUSE BIG"), lexicon, bigram, helpers=())
        assert out.surfaces == ("house", "big")

    def test_non_lexical_tokens_drop_to_empty(self):
        bigram = NgramModel(2, {})
        lexicon = BilingualLexicon({}, {})
        out = baseline_asl_to_eng(tokenize_asl(", [point]"), lexicon, bigram)
        assert out.surfaces == ()

    def test_content_words_survive_in_order(self):
        rng = random.Random(10)
        lexicon = BilingualLexicon({}, {})
        helpers = ("a", "the")
        for _ in range(40):
            signs = [rng.choice(["HOUSE", "CAT", "DOG", ",", "[point]"]) for _ in range(rng.randint(1, 6))]
            counts = {
                (a, b): rng.randint(1, 9)
                for a in ["a", "the", "house", "cat", "dog", PAD_TOKEN]
                for b in ["a", "the", "house", "cat", "dog"]
                if rng.random() < 0.5
            }
            bigram = NgramModel(2, counts) if counts else NgramModel(2, {})
            out = baseline_asl_to_eng(tokenize_asl(" ".join(signs)), lexicon, bigram, helpers)
            skeleton = [s.lower() for s in signs if s not in (",", "[point]")]
            non_helpers = [w for w in out.surfaces if w not in helpers]
            assert non_helpers == skeleton

    def test_matches_enumeration_oracle(self):
        rng = random.Random(11)
        lexicon = BilingualLexicon({}, {})
        helpers = ("a", "the", "is")
        vocab = ["a", "the", "is", "w0", "w1", "w2", "w3", PAD_TOKEN]
        for _ in range(30):
            skeleton_signs = [f"W{rng.randint(0, 3)}" for _ in range(rng.randint(1, 4))]
            counts = {}
            for a in vocab:
                for b in vocab[:-1]:
                    if rng.random() < 0.6:
                        counts[(a, b)] = rng.randint(1, 9)
            bigram = NgramModel(2, counts) if counts else NgramModel(2, {})
            out = baseline_asl_to_eng(tokenize_asl(" ".join(skeleton_signs)), lexicon, bigram, helpers)
            skeleton = [s.lower() for s in skeleton_signs]
            _, _, expected = best_insertion_by_enumeration(skeleton, helpers, bigram)
            assert out.surfaces == expected

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            baseline_asl_to_eng(tokenize_asl("HOUSE"), BilingualLexicon({}, {}), NgramModel(1, {}))


class TestHelperFile:
    def test_one_word_per_line(self, tmp_path):
        path = tmp_path / "helpers.txt"
        path.write_text("a\nthe\n# comment\n\nis\n", encoding="utf-8")
        assert load_helper_words(path) == ("a", "the", "is")
