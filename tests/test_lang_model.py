import math
import random

import pytest

from aslmt.corpus import Corpus, SentencePair, tokenize_asl, tokenize_english
from aslmt.errors import EmptyCorpusError, NgramFormatError
from aslmt.lang_model import (
    PAD_TOKEN,
    AslUnigramModel,
    NgramModel,
    asl_logprob,
    build_asl_model,
    build_english_model,
    english_logprob,
    load_ngram_file,
    load_asl_model,
    save_asl_model,
    save_ngram_file,
)

FLOOR = 1e-7


def _pair(pair_id, gloss, english):
    return SentencePair(pair_id, tokenize_asl(gloss), tokenize_english(english))


class TestNgramModel:
    def test_empty_sentence_scores_zero(self):
        model = NgramModel(3, {})
        assert english_logprob(model, ()) == 0.0

    def test_trigram_sentence_is_one_window_per_token(self):
        # Six windows for a six-token sentence, each with probability 1/4
        # against a competitor sharing its two-token prefix.
        sentence = ["do", "you", "like", "learning", "sign", "language"]
        padded = [PAD_TOKEN, PAD_TOKEN, *sentence]
        counts = {}
        for i in range(len(sentence)):
            window = tuple(padded[i : i + 3])
            counts[window] = 1
            counts[window[:2] + ("zzz",)] = 3
        model = NgramModel(3, counts)
        expected = 6 * math.log(0.25)
        assert english_logprob(model, sentence) == pytest.approx(expected, abs=1e-12)

    def test_unknown_tokens_hit_floor(self):
        model = NgramModel(3, {})
        got = english_logprob(model, ["a", "b", "c"])
        assert got == pytest.approx(3 * math.log(FLOOR), abs=1e-12)

    def test_incremental_matches_batch(self):
        rng = random.Random(5)
        vocab = ["a", "b", "c", "d"]
        sentences = [[rng.choice(vocab) for _ in range(rng.randint(1, 6))] for _ in range(30)]
        counts = {}
        for s in sentences:
            padded = [PAD_TOKEN, *s]
            for i in range(len(s)):
                counts[tuple(padded[i : i + 2])] = counts.get(tuple(padded[i : i + 2]), 0) + 1
        model = NgramModel(2, counts)
        for s in sentences:
            total = 0.0
            for i, token in enumerate(s):
                total += model.extension_logprob(s[:i], token)
            assert model.sequence_logprob(s) == total

    def test_observed_successors_sum_to_at_most_one(self):
        corpus = Corpus(
            tuple(
                _pair(i + 1, g, e)
                for i, (g, e) in enumerate(
                    [("A B", "you like it"), ("A", "you love it"), ("B", "it works now")]
                )
            )
        )
        model = build_english_model(corpus, 2)
        prefixes = {w[:-1] for w in model.probs}
        for prefix in prefixes:
            total = sum(p for w, p in model.probs.items() if w[:-1] == prefix)
            assert total <= 1 + 1e-9

    def test_order_validation(self):
        with pytest.raises(ValueError):
            NgramModel(0, {})
        with pytest.raises(ValueError):
            NgramModel(6, {})
        with pytest.raises(ValueError):
            NgramModel(2, {("too", "many", "tokens"): 1})

    @pytest.mark.parametrize("floor_prob", [0.0, -1e-7, 1.5, 5.0, math.nan, math.inf])
    def test_floor_must_be_a_probability(self, floor_prob):
        with pytest.raises(ValueError):
            NgramModel(1, {("a",): 1}, floor_prob)

    def test_floor_of_one_scores_zero(self):
        model = NgramModel(1, {("a",): 1}, floor_prob=1.0)
        assert model.extension_logprob((), "zebra") == 0.0


class TestNgramFiles:
    def test_conditional_normalization(self, tmp_path):
        path = tmp_path / "bigrams.txt"
        path.write_text("3\tyou like\n1\tyou love\n", encoding="utf-8")
        model = load_ngram_file(path, 2)
        assert model.probs[("you", "like")] == pytest.approx(0.75)
        assert model.probs[("you", "love")] == pytest.approx(0.25)

    def test_empty_file_floors_everything(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", encoding="utf-8")
        model = load_ngram_file(path, 2)
        assert model.extension_logprob(("you",), "like") == pytest.approx(math.log(FLOOR))

    def test_duplicate_windows_sum(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("2\tyou like\n3\tyou like\n5\tyou love\n", encoding="utf-8")
        model = load_ngram_file(path, 2)
        assert model.counts[("you", "like")] == 5
        assert model.probs[("you", "like")] == pytest.approx(0.5)

    def test_wrong_token_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\tyou like\n2\tyou like it\n", encoding="utf-8")
        with pytest.raises(NgramFormatError, match=":2:"):
            load_ngram_file(path, 2)

    def test_bad_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x\tyou like\n", encoding="utf-8")
        with pytest.raises(NgramFormatError, match=":1:"):
            load_ngram_file(path, 2)

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("3\tyou like\n0\tyou love\n", ":2:", id="count-zero"),
            pytest.param("3\tyou like\n-2\tyou love\n", ":2:", id="count-negative"),
            pytest.param("1.5\tyou like\n", ":1:", id="count-float"),
            pytest.param("3\tyou like\textra\n", ":1:", id="three-fields"),
            pytest.param("3\tyou like\n\n3 you love\n", ":3:", id="no-tab-after-blank"),
        ],
    )
    def test_bad_records_report_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(NgramFormatError, match=line):
            load_ngram_file(path, 2)

    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus(tuple(_pair(i + 1, f"S{i}", "you like sign language") for i in range(3)))
        model = build_english_model(corpus, 3)
        path = tmp_path / "tri.txt"
        save_ngram_file(model, path)
        reloaded = load_ngram_file(path, 3)
        assert reloaded.counts == model.counts
        assert reloaded.probs == model.probs


class TestAslUnigramModel:
    def test_relative_frequencies(self):
        corpus = Corpus((_pair(1, "A A B ,", "x"),))
        model = build_asl_model(corpus)
        assert model.unigram["A"] == pytest.approx(0.5)
        assert model.unigram["B"] == pytest.approx(0.25)
        assert model.unigram[","] == pytest.approx(0.25)

    def test_gesture_tokens_are_vocabulary(self):
        corpus = Corpus((_pair(1, "WRISTWATCH [point], WHO GIVE-YOU?", "who gave you that"),))
        model = build_asl_model(corpus)
        assert "[point]" in model.unigram

    def test_probabilities_sum_to_one(self):
        corpus = Corpus(tuple(_pair(i + 1, g, "x") for i, g in enumerate(["A B", "B C , D", "[point] A"])))
        model = build_asl_model(corpus)
        assert sum(model.unigram.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_asl_model(Corpus(()))

    @pytest.mark.parametrize("floor_prob", [0.0, -1e-7, 1.5, 5.0, math.nan, math.inf])
    def test_floor_must_be_a_probability(self, floor_prob):
        with pytest.raises(ValueError):
            AslUnigramModel({"A": 1}, floor_prob=floor_prob)

    def test_no_commas_plain_unigram_sum(self):
        corpus = Corpus((_pair(1, "A A B", "x"),))
        model = build_asl_model(corpus)
        got = asl_logprob(model, ["A", "B"])
        expected = math.log(model.unigram["A"]) + math.log(model.unigram["B"])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_comma_neighbor_adjustment(self):
        corpus = Corpus((_pair(1, "X , Y X Y", "x"),))
        model = build_asl_model(corpus, comma_boost=2.0)
        p_x = model.unigram["X"]
        p_c = model.unigram[","]
        p_y = model.unigram["Y"]
        expected = math.log(p_x / 2) + math.log(p_c) + math.log(min(1.0, 2 * p_y))
        assert asl_logprob(model, ["X", ",", "Y"]) == pytest.approx(expected, abs=1e-12)

    def test_comma_at_boundary_adjusts_present_side_only(self):
        corpus = Corpus((_pair(1, "X , Y", "x"),))
        model = build_asl_model(corpus, comma_boost=2.0)
        p_x = model.unigram["X"]
        p_c = model.unigram[","]
        # leading comma: only the following token is boosted
        expected = math.log(p_c) + math.log(min(1.0, 2 * p_x))
        assert asl_logprob(model, [",", "X"]) == pytest.approx(expected, abs=1e-12)
        # trailing comma: only the preceding token is damped
        expected = math.log(p_x / 2) + math.log(p_c)
        assert asl_logprob(model, ["X", ","]) == pytest.approx(expected, abs=1e-12)

    def test_multiple_commas_compose(self):
        corpus = Corpus((_pair(1, "X , Y , Z", "x"),))
        model = build_asl_model(corpus, comma_boost=2.0)
        u = model.unigram
        expected = (
            math.log(u["X"] / 2)
            + math.log(u[","])
            + math.log(min(1.0, 2 * u["Y"]) / 2)
            + math.log(u[","])
            + math.log(min(1.0, 2 * u["Z"]))
        )
        assert asl_logprob(model, ["X", ",", "Y", ",", "Z"]) == pytest.approx(expected, abs=1e-12)

    def test_boost_of_one_is_plain_unigram(self):
        corpus = Corpus((_pair(1, "X , Y Z , W", "x"),))
        model = build_asl_model(corpus, comma_boost=1.0)
        rng = random.Random(11)
        vocab = ["X", "Y", "Z", "W", ",", "UNSEEN"]
        for _ in range(50):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
            # A left-to-right fold, like the model's: sum() of floats is
            # compensated from Python 3.12 on and can differ in the last bit.
            plain = 0.0
            for t in tokens:
                plain += math.log(model.unigram.get(t, model.floor_prob))
            assert asl_logprob(model, tokens) == plain

    def test_adjustment_is_local_to_comma_neighbors(self):
        corpus = Corpus((_pair(1, "X , Y A B C", "x"),))
        model = build_asl_model(corpus, comma_boost=2.0)
        # sentences differing only far from the comma differ by the plain
        # unigram ratio of the swapped tokens
        a = asl_logprob(model, ["X", ",", "Y", "A", "B"])
        b = asl_logprob(model, ["X", ",", "Y", "A", "C"])
        expected = math.log(model.unigram["B"]) - math.log(model.unigram["C"])
        assert a - b == pytest.approx(expected, abs=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        corpus = Corpus((_pair(1, "A B , [point]", "x"),))
        model = build_asl_model(corpus, comma_boost=3.0)
        path = tmp_path / "asl.tsv"
        save_asl_model(model, path)
        reloaded = load_asl_model(path)
        assert reloaded.unigram == model.unigram
        assert reloaded.comma_boost == model.comma_boost
        assert reloaded.floor_prob == model.floor_prob

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 1e-07\nx\tA\n", ":2:", id="asl-count-x"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 1e-07\n1\tA\n0\tB\n", ":3:", id="asl-count-zero"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 1e-07\n1\tA\n-1\tB\n", ":3:", id="asl-count-negative"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 1e-07\n2.5\tA\n", ":2:", id="asl-count-float"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 1e-07\n1\tA\tB\n", ":2:", id="asl-three-fields"),
            pytest.param("asl_unigram comma_boost abc floor_prob 1e-07\n1\tA\n", ":1:", id="asl-boost-abc"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob x\n1\tA\n", ":1:", id="asl-floor-x"),
            pytest.param("asl_unigram comma_boost nan floor_prob 1e-07\n1\tA\n", ":1:", id="asl-boost-nan"),
            pytest.param("asl_unigram comma_boost 0.5 floor_prob 1e-07\n1\tA\n", ":1:", id="asl-boost-below-one"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 0\n1\tA\n", ":1:", id="asl-floor-zero"),
            pytest.param("asl_unigram comma_boost 2.0 floor_prob 5.0\n1\tA\n", ":1:", id="asl-floor-above-one"),
            pytest.param("asl_unigram comma_boost 2.0\n1\tA\n", ":1:", id="asl-header-short"),
        ],
    )
    def test_bad_file_reports_line(self, tmp_path, text, line):
        path = tmp_path / "asl.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(NgramFormatError, match=line):
            load_asl_model(path)
