import math
import random

import pytest

from aslmt.align_model import (
    ENGLISH_GIVEN_SIGN,
    NULL,
    SIGN_GIVEN_ENGLISH,
    EmConfig,
    TranslationTable,
    alignment_posterior,
    brute_force_logprob,
    em_step,
    em_train,
    init_uniform,
    translation_logprob,
)
from aslmt.corpus import Corpus, SentencePair, tokenize_asl, tokenize_english
from aslmt.errors import EmptyCorpusError, EnumerationSizeError, TableFormatError

from oracles import dict_em_train, dict_em_update, enumeration_em


def _corpus(*pairs_text):
    pairs = tuple(
        SentencePair(i + 1, tokenize_asl(gloss), tokenize_english(english))
        for i, (gloss, english) in enumerate(pairs_text)
    )
    return Corpus(pairs)


def _sides(corpus, direction):
    if direction == SIGN_GIVEN_ENGLISH:
        return [(p.sign_side.surfaces, p.english_side.surfaces) for p in corpus]
    return [(p.english_side.surfaces, p.sign_side.surfaces) for p in corpus]


def _column_sums(table):
    sums = {}
    for (_, e), p in table.t.items():
        sums[e] = sums.get(e, 0.0) + p
    return sums


TWO_PAIR = _corpus(("A B", "x y"), ("A", "x"))


class TestInitUniform:
    def test_uniform_over_cooccurring_sources(self):
        table = init_uniform(TWO_PAIR, SIGN_GIVEN_ENGLISH)
        assert table.t[("A", "x")] == pytest.approx(0.5)
        assert table.t[("B", "x")] == pytest.approx(0.5)
        assert table.t[("A", "y")] == pytest.approx(0.5)

    def test_null_column_covers_source_vocab(self):
        table = init_uniform(TWO_PAIR, SIGN_GIVEN_ENGLISH)
        assert table.t[("A", NULL)] == pytest.approx(0.5)
        assert table.t[("B", NULL)] == pytest.approx(0.5)

    def test_columns_sum_to_one(self):
        table = init_uniform(TWO_PAIR, SIGN_GIVEN_ENGLISH)
        for e, total in _column_sums(table).items():
            assert total == pytest.approx(1.0, abs=1e-9), e

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            init_uniform(Corpus(()), SIGN_GIVEN_ENGLISH)


class TestAlignmentPosterior:
    def test_uniform_table_gives_uniform_rows(self):
        table = init_uniform(_corpus(("A B", "x y")), SIGN_GIVEN_ENGLISH)
        posterior = alignment_posterior(["A", "B"], ["x", "y"], table)
        for row in posterior.matrix:
            assert row == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_indicator_table_gives_indicator_row(self):
        table = TranslationTable({("s", "e"): 1.0, ("s", NULL): 0.0}, SIGN_GIVEN_ENGLISH)
        posterior = alignment_posterior(["s"], ["e"], table)
        assert posterior.matrix[0][1] == pytest.approx(1.0, abs=1e-6)

    def test_even_split_with_null(self):
        table = TranslationTable({("s", NULL): 0.5, ("s", "e"): 0.5}, SIGN_GIVEN_ENGLISH)
        posterior = alignment_posterior(["s"], ["e"], table)
        assert posterior.matrix[0] == pytest.approx((0.5, 0.5))

    def test_rows_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(50):
            src = [f"s{i}" for i in range(rng.randint(1, 4))]
            tgt = [f"e{i}" for i in range(rng.randint(1, 4))]
            t = {(s, e): rng.random() for s in src for e in tgt}
            t.update({(s, NULL): rng.random() for s in src})
            table = TranslationTable(t, SIGN_GIVEN_ENGLISH)
            posterior = alignment_posterior(src, tgt, table)
            for row in posterior.matrix:
                assert sum(row) == pytest.approx(1.0, abs=1e-9)


class TestEmStep:
    def test_single_pair_concentrates(self):
        corpus = _corpus(("A", "x"))
        table = em_step(corpus, init_uniform(corpus, SIGN_GIVEN_ENGLISH))
        assert table.t[("A", "x")] == pytest.approx(1.0, abs=1e-12)
        assert table.t[("A", NULL)] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_and_pure(self):
        table = init_uniform(TWO_PAIR, SIGN_GIVEN_ENGLISH)
        before = dict(table.t)
        first = em_step(TWO_PAIR, table)
        second = em_step(TWO_PAIR, table)
        assert first.t == second.t
        assert table.t == before

    def test_columns_stay_normalized_for_25_iterations(self):
        table = init_uniform(TWO_PAIR, SIGN_GIVEN_ENGLISH)
        for _ in range(25):
            table = em_step(TWO_PAIR, table)
            for e, total in _column_sums(table).items():
                assert total == pytest.approx(1.0, abs=1e-9), e


class TestEmConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iterations", 0),
            ("convergence_tol", 0.0),
            ("convergence_tol", math.nan),
            ("convergence_tol", math.inf),
            ("epsilon", 0.0),
            ("epsilon", math.nan),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            EmConfig(**{field: value})


def _raw_log_likelihood(corpus, table, direction):
    """Closed-form training log-likelihood from the raw (unfloored) entries."""
    total = 0.0
    for src, tgt in _sides(corpus, direction):
        total += math.log(table.epsilon) - len(src) * math.log(1 + len(tgt))
        for s in src:
            # A left fold, as the model adds: sum() is compensated from
            # Python 3.12 on and can differ in the last bit.
            row_total = 0.0
            for e in (NULL, *tgt):
                row_total += table.t.get((s, e), 0.0)
            total += math.log(row_total)
    return total


class TestEmTrain:
    @pytest.mark.parametrize("direction", [SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN])
    @pytest.mark.parametrize("epsilon", [1.0, 0.5])
    def test_log_likelihood_k_scores_kth_iterate(self, direction, epsilon):
        corpus = _corpus(("A B", "x y"), ("A", "x"), ("B C ,", "y z"), ("C", "z w"))
        result = em_train(corpus, EmConfig(max_iterations=12, convergence_tol=1e-12, epsilon=epsilon), direction)
        assert len(result.log_likelihoods) == result.iterations + 1
        table = init_uniform(corpus, direction, epsilon)
        for k, log_likelihood in enumerate(result.log_likelihoods):
            if k:
                table = em_step(corpus, table)
            assert log_likelihood == _raw_log_likelihood(corpus, table, direction), k
        assert table.t == result.table.t

    def test_two_pair_disambiguation(self):
        # parameters approach the boundary like 1/k here, so the 1e-6
        # max-change tolerance is only reached after a few hundred steps
        result = em_train(TWO_PAIR, EmConfig(max_iterations=700, convergence_tol=1e-6), SIGN_GIVEN_ENGLISH)
        table = result.table
        assert result.iterations < 700
        assert table.t[("A", "x")] > table.t[("B", "x")]
        assert table.t[("B", "y")] > table.t[("A", "y")]

    def test_matches_enumeration_oracle(self):
        result = em_train(TWO_PAIR, EmConfig(convergence_tol=1e-6), SIGN_GIVEN_ENGLISH)
        oracle = enumeration_em([(("A", "B"), ("x", "y")), (("A",), ("x",))], result.iterations)
        assert set(oracle) == set(result.table.t)
        for key, value in oracle.items():
            assert result.table.t[key] == pytest.approx(value, abs=1e-6), key

    def test_log_likelihood_non_decreasing(self):
        result = em_train(TWO_PAIR, EmConfig(max_iterations=30, convergence_tol=1e-12), SIGN_GIVEN_ENGLISH)
        for earlier, later in zip(result.log_likelihoods, result.log_likelihoods[1:]):
            assert later >= earlier - 1e-9

    def test_single_iteration_equals_one_step(self):
        result = em_train(TWO_PAIR, EmConfig(max_iterations=1), SIGN_GIVEN_ENGLISH)
        expected = em_step(TWO_PAIR, init_uniform(TWO_PAIR, SIGN_GIVEN_ENGLISH))
        assert result.iterations == 1
        assert result.table.t == expected.t

    def test_both_directions_train(self):
        for direction in (SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN):
            result = em_train(TWO_PAIR, EmConfig(max_iterations=5), direction)
            assert result.table.direction == direction


def _random_corpus(rng):
    """Up to eight pairs over small vocabularies, so tokens repeat within
    and across sentences."""
    return _corpus(*[
        (
            " ".join(rng.choice("ABCDEF") for _ in range(rng.randint(1, 5))),
            " ".join(rng.choice("vwxyz") for _ in range(rng.randint(1, 5))),
        )
        for _ in range(rng.randint(1, 8))
    ])


class TestEmExactness:
    """The slot-compiled EM against a dict-keyed update in corpus order:
    same table (key order included), log-likelihoods and iterations, bit
    for bit."""

    @pytest.mark.parametrize("direction", [SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN])
    @pytest.mark.parametrize("epsilon", [1.0, 0.5])
    def test_em_train_matches_dict_em(self, direction, epsilon):
        rng = random.Random(f"{direction}-{epsilon}")
        repeated = 0
        for _ in range(25):
            corpus = _random_corpus(rng)
            pairs = _sides(corpus, direction)
            repeated += sum(len(set(src)) < len(src) for src, _ in pairs)
            config = EmConfig(
                max_iterations=rng.choice([1, 7, 100]),
                convergence_tol=rng.choice([1e-2, 1e-4, 1e-9]),
                epsilon=epsilon,
            )
            result = em_train(corpus, config, direction)
            t, iterations, log_likelihoods = dict_em_train(
                pairs, epsilon, config.max_iterations, config.convergence_tol
            )
            assert list(result.table.t.items()) == list(t.items())
            assert result.log_likelihoods == log_likelihoods
            assert result.iterations == iterations
        assert repeated

    @pytest.mark.parametrize("direction", [SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN])
    def test_em_step_matches_dict_update(self, direction):
        rng = random.Random(direction)
        for _ in range(20):
            corpus = _random_corpus(rng)
            pairs = _sides(corpus, direction)
            table = init_uniform(corpus, direction, 0.5)
            for _ in range(3):
                expected, _ = dict_em_update(pairs, table.t, 0.5)
                table = em_step(corpus, table)
                assert list(table.t.items()) == list(expected.items())

    def test_em_step_on_partial_table(self):
        corpus = _corpus(("A B A", "x y"), ("B C", "y z x"), ("C", "z"))
        t = init_uniform(corpus, SIGN_GIVEN_ENGLISH, 0.5).t
        del t[("A", "y")], t[("C", "x")], t[("B", NULL)]
        t[("B", "z")] = 0.0
        t[("Q", "x")] = 0.25
        table = TranslationTable(t, SIGN_GIVEN_ENGLISH, 0.5)
        updated = em_step(corpus, table)
        expected, _ = dict_em_update(_sides(corpus, SIGN_GIVEN_ENGLISH), t, 0.5)
        assert list(updated.t.items()) == list(expected.items())
        for key in [("A", "y"), ("C", "x"), ("B", NULL), ("B", "z"), ("Q", "x")]:
            assert key not in updated.t
        assert (updated.direction, updated.epsilon, updated.floor) == (
            table.direction, table.epsilon, table.floor
        )


def _random_instance(rng):
    j = rng.randint(0, 4)
    i = rng.randint(1, 4)
    src = [rng.choice("abcd") for _ in range(j)]
    tgt = [rng.choice("wxyz") for _ in range(i)]
    t = {}
    for s in set(src) | {"q"}:
        t[(s, NULL)] = rng.random()
        for e in set(tgt):
            if rng.random() < 0.8:
                t[(s, e)] = rng.random()
    return src, tgt, TranslationTable(t, SIGN_GIVEN_ENGLISH)


class TestTranslationLogprob:
    def test_empty_source_is_log_epsilon(self):
        table = TranslationTable({("s", NULL): 1.0}, SIGN_GIVEN_ENGLISH)
        assert translation_logprob([], ["e"], table, epsilon=0.25) == pytest.approx(math.log(0.25))

    def test_hand_computed_single_position(self):
        table = TranslationTable({("s", NULL): 0.1, ("s", "e"): 0.3}, SIGN_GIVEN_ENGLISH)
        got = translation_logprob(["s"], ["e"], table, epsilon=1.0)
        assert got == pytest.approx(math.log(0.5) + math.log(0.4), abs=1e-12)

    def test_brute_force_hand_case(self):
        table = TranslationTable({("s", NULL): 0.1, ("s", "e"): 0.3}, SIGN_GIVEN_ENGLISH)
        got = brute_force_logprob(["s"], ["e"], table, epsilon=1.0)
        assert got == pytest.approx(math.log(0.2), abs=1e-12)

    def test_closed_form_matches_enumeration(self):
        rng = random.Random(12)
        checked = 0
        while checked < 120:
            src, tgt, table = _random_instance(rng)
            closed = translation_logprob(src, tgt, table)
            brute = brute_force_logprob(src, tgt, table)
            assert closed == pytest.approx(brute, abs=1e-9)
            checked += 1

    def test_permuting_target_leaves_score_unchanged(self):
        rng = random.Random(13)
        for _ in range(50):
            src, tgt, table = _random_instance(rng)
            shuffled = tgt[:]
            rng.shuffle(shuffled)
            assert translation_logprob(src, tgt, table) == pytest.approx(
                translation_logprob(src, shuffled, table), abs=1e-9
            )

    def test_enumeration_guard(self):
        table = TranslationTable({("s", NULL): 1.0}, SIGN_GIVEN_ENGLISH)
        with pytest.raises(EnumerationSizeError):
            brute_force_logprob(["s"] * 10, ["e"] * 9, table)

    def test_epsilon_validation(self):
        table = TranslationTable({("s", NULL): 1.0}, SIGN_GIVEN_ENGLISH)
        with pytest.raises(ValueError):
            translation_logprob(["s"], ["e"], table, epsilon=0.0)


class TestTableSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        result = em_train(TWO_PAIR, EmConfig(max_iterations=7), SIGN_GIVEN_ENGLISH)
        path = tmp_path / "table.tsv"
        result.table.save(path)
        reloaded = TranslationTable.load(path)
        assert reloaded.direction == SIGN_GIVEN_ENGLISH
        assert reloaded.epsilon == result.table.epsilon
        assert reloaded.t == result.table.t

    def test_header_carries_direction_and_epsilon(self, tmp_path):
        table = TranslationTable({("s", NULL): 1.0}, ENGLISH_GIVEN_SIGN, epsilon=0.5)
        path = tmp_path / "table.tsv"
        table.save(path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "direction english_given_sign epsilon 0.5"

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("direction sign_given_english epsilon 1.0\ns\tNULL\tabc\n", ":2:", id="prob-abc"),
            pytest.param("direction sign_given_english epsilon 1.0\ns\tNULL\tnan\n", ":2:", id="prob-nan"),
            pytest.param("direction sign_given_english epsilon 1.0\ns\tNULL\t-0.25\n", ":2:", id="prob-negative"),
            pytest.param("direction sign_given_english epsilon 1.0\ns\tNULL\t1.5\n", ":2:", id="prob-above-one"),
            pytest.param("direction sign_given_english epsilon 1.0\ns\tNULL\n", ":2:", id="two-fields"),
            pytest.param("direction sign_given_english epsilon 1.0\n\ns\tNULL\t0.5\nt\tNULL\tinf\n", ":4:", id="prob-inf-after-blank"),
            pytest.param("direction sign_given_english epsilon abc\ns\tNULL\t1.0\n", ":1:", id="epsilon-abc"),
            pytest.param("direction sideways epsilon 1.0\ns\tNULL\t1.0\n", ":1:", id="direction-unknown"),
            pytest.param("direction sign_given_english\n", ":1:", id="header-short"),
        ],
    )
    def test_bad_records_report_line(self, tmp_path, text, line):
        path = tmp_path / "table.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TableFormatError, match=line):
            TranslationTable.load(path)

    def test_null_written_literally(self, tmp_path):
        table = TranslationTable({("s", NULL): 1.0}, SIGN_GIVEN_ENGLISH)
        path = tmp_path / "table.tsv"
        table.save(path)
        assert "s\tNULL\t1" in path.read_text(encoding="utf-8")
