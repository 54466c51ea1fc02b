import itertools
import math
import random

import pytest

from aslmt.align_model import NULL, SIGN_GIVEN_ENGLISH, TranslationTable
from aslmt.corpus import Corpus, SentencePair, tokenize_asl, tokenize_english
from aslmt.decoder import (
    ASL_TO_ENG,
    EMPTY_HYPOTHESIS,
    DecoderConfig,
    Hypothesis,
    Step,
    decode,
    expand,
    priority,
    translate_corpus,
)
from aslmt.lang_model import PAD_TOKEN, NgramModel

from oracles import best_priority_by_enumeration, unbounded_beam_search


def _table(entries, floor=1e-9):
    return TranslationTable(entries, SIGN_GIVEN_ENGLISH, floor=floor)


def _uniform_lm():
    # no counts: every window scores the floor, i.e. a constant per token
    return NgramModel(1, {})


def _hyp(*steps, lm_score=0.0):
    tm = sum(s.tm_logprob for s in steps)
    targets = tuple(s.target for s in steps if s.target is not None)
    covered = frozenset(s.source_index for s in steps)
    return Hypothesis(tuple(steps), covered, tm, lm_score, targets)


class TestPriority:
    def test_empty_hypothesis_scores_zero(self):
        assert priority(EMPTY_HYPOTHESIS, DecoderConfig()) == 0.0

    def test_zero_weight_is_translation_score_only(self):
        h = _hyp(Step("w", 0, math.log(0.5)), lm_score=-3.0)
        assert priority(h, DecoderConfig(lm_weight=0.0)) == h.tm_score

    def test_single_step_formula(self):
        h = _hyp(Step("w", 0, math.log(0.5)), lm_score=math.log(0.1))
        got = priority(h, DecoderConfig(lm_weight=0.3))
        assert got == pytest.approx(math.log(0.5) + 0.3 * math.log(0.1), abs=1e-12)

    def test_literal_log_sum_variant(self):
        steps = (Step("a", 0, math.log(0.5)), Step("b", 1, math.log(0.25)))
        h = _hyp(*steps, lm_score=-1.0)
        config = DecoderConfig(lm_weight=0.0, literal_log_sum=True)
        assert priority(h, config) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_higher_lm_wins_at_equal_tm_for_positive_weight(self):
        low = _hyp(Step("a", 0, math.log(0.5)), lm_score=-4.0)
        high = _hyp(Step("b", 0, math.log(0.5)), lm_score=-2.0)
        for weight in (0.1, 0.5, 1.0):
            config = DecoderConfig(lm_weight=weight)
            assert priority(high, config) > priority(low, config)
        config = DecoderConfig(lm_weight=0.0)
        assert priority(high, config) == priority(low, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(lm_weight=-0.1)
        with pytest.raises(ValueError):
            DecoderConfig(max_queue_size=0)
        with pytest.raises(ValueError):
            DecoderConfig(epsilon=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("lm_weight", math.nan), ("lm_weight", math.inf), ("epsilon", math.nan), ("fanout", 0)],
    )
    def test_config_rejects_non_finite_and_out_of_range(self, field, value):
        with pytest.raises(ValueError):
            DecoderConfig(**{field: value})


class TestExpand:
    def test_word_and_skip_counts(self):
        table = _table({("S", "a"): 0.6, ("S", "b"): 0.3, ("S", "c"): 0.1, ("S", NULL): 0.2})
        out = expand(EMPTY_HYPOTHESIS, ["S"], table, _uniform_lm(), DecoderConfig(fanout=2))
        words = [h for h in out if h.steps[-1].target is not None]
        skips = [h for h in out if h.steps[-1].target is None]
        assert len(words) == 2 and len(skips) == 1
        assert {h.steps[-1].target for h in words} == {"a", "b"}

    def test_new_coverage_moves_to_next_queue(self):
        table = _table({("S", "a"): 1.0, ("S", NULL): 0.5, ("T", "b"): 1.0, ("T", NULL): 0.5})
        out = expand(EMPTY_HYPOTHESIS, ["S", "T"], table, _uniform_lm(), DecoderConfig())
        assert all(len(h.covered) == 1 for h in out)

    def test_retranslation_stays_in_same_queue(self):
        table = _table({("S", "a"): 0.9, ("S", NULL): 0.1, ("T", "b"): 1.0, ("T", NULL): 0.5})
        base = expand(EMPTY_HYPOTHESIS, ["S", "T"], table, _uniform_lm(), DecoderConfig())
        start = next(h for h in base if h.steps[-1] == ("a", 0, math.log(0.9)))
        out = expand(start, ["S", "T"], table, _uniform_lm(), DecoderConfig())
        same_queue = [h for h in out if h.steps[-1].source_index == 0 and h.steps[-1].target]
        assert same_queue and all(len(h.covered) == 1 for h in same_queue)

    def test_word_cap_per_source_position(self):
        table = _table({("S", "a"): 1.0, ("S", NULL): 0.5})
        config = DecoderConfig(max_words_per_source=2, fanout=1)
        h = EMPTY_HYPOTHESIS
        for _ in range(2):
            h = next(x for x in expand(h, ["S"], table, _uniform_lm(), config) if x.steps[-1].target)
        out = expand(h, ["S"], table, _uniform_lm(), config)
        assert all(x.steps[-1].target is None or x.steps[-1].source_index != 0 for x in out)
        assert not out  # position 0 is capped and already covered

    def test_skip_only_for_uncovered(self):
        table = _table({("S", "a"): 1.0, ("S", NULL): 0.5})
        base = expand(EMPTY_HYPOTHESIS, ["S"], table, _uniform_lm(), DecoderConfig(fanout=1))
        covered = next(h for h in base if h.steps[-1].target == "a")
        out = expand(covered, ["S"], table, _uniform_lm(), DecoderConfig(fanout=1))
        assert all(h.steps[-1].target is not None for h in out)


def _random_decode_instance(rng):
    length = rng.randint(1, 2)
    signs = [rng.choice(["S0", "S1"]) for _ in range(length)]
    words = ["wa", "wb", "wc"]
    entries = {}
    for sign in set(signs):
        entries[(sign, NULL)] = rng.uniform(0.05, 0.5)
        for word in rng.sample(words, rng.randint(1, 3)):
            entries[(sign, word)] = rng.uniform(0.05, 1.0)
    table = _table(entries)
    counts = {}
    for word in words:
        if rng.random() < 0.7:
            counts[(word,)] = rng.randint(1, 5)
    lm = NgramModel(1, counts) if counts else _uniform_lm()
    config = DecoderConfig(
        lm_weight=rng.choice([0.0, 0.1, 0.5, 1.0]),
        max_queue_size=10**4,
        fanout=3,
        max_words_per_source=2,
    )
    return signs, table, lm, config


class TestDecode:
    def test_empty_source(self):
        table = _table({("S", "a"): 1.0})
        result = decode([], table, _uniform_lm(), DecoderConfig())
        assert len(result.output) == 0
        assert result.priority == 0.0
        assert result.expansions == 0

    def test_dominant_entry_wins(self):
        table = _table(
            {("HOUSE", "house"): 0.9, ("HOUSE", "cat"): 0.05, ("HOUSE", NULL): 0.05}
        )
        config = DecoderConfig(fanout=2, max_queue_size=8)
        result = decode(tokenize_asl("HOUSE"), table, _uniform_lm(), config)
        assert result.output.surfaces == ("house",)
        oracle = best_priority_by_enumeration(("HOUSE",), table, _uniform_lm(), config)
        assert result.priority == oracle

    def test_matches_enumeration_oracle(self):
        rng = random.Random(42)
        for _ in range(40):
            signs, table, lm, config = _random_decode_instance(rng)
            result = decode(signs, table, lm, config)
            oracle = best_priority_by_enumeration(tuple(signs), table, lm, config)
            assert result.priority == oracle, (signs, result.output.surfaces)

    def test_beam_contract(self):
        rng = random.Random(43)
        for _ in range(30):
            signs, table, lm, _ = _random_decode_instance(rng)
            config = DecoderConfig(
                lm_weight=0.1, max_queue_size=rng.randint(1, 5), fanout=2, max_words_per_source=2
            )
            result = decode(signs, table, lm, config)
            length = len(signs)
            assert len(result.pops_per_queue) == length
            assert all(p <= config.max_queue_size for p in result.pops_per_queue)
            bound = (length * config.max_queue_size) * (
                length * (config.fanout + 1) * config.max_words_per_source
            )
            assert result.expansions <= bound

    def test_output_has_no_sentinels(self):
        table = _table({("S", NULL): 1.0})
        result = decode(["S"], table, _uniform_lm(), DecoderConfig())
        assert result.output.surfaces == ()
        assert all(s is not None for s in result.output.surfaces)

    def test_deterministic(self):
        rng = random.Random(44)
        signs, table, lm, config = _random_decode_instance(rng)
        first = decode(signs, table, lm, config)
        second = decode(signs, table, lm, config)
        assert first.output == second.output
        assert first.priority == second.priority

    def test_unknown_source_tokens_are_skipped(self):
        table = _table({("KNOWN", "known"): 1.0})
        result = decode(["MYSTERY"], table, _uniform_lm(), DecoderConfig())
        assert result.output.surfaces == ()


def _random_beam_instance(rng):
    """Sources of up to five tokens over three signs, so that the queue
    limits cut in; a unigram or bigram LM with random counts."""
    signs = ["S0", "S1", "S2"]
    words = ["wa", "wb", "wc", "wd"]
    source = [rng.choice(signs) for _ in range(rng.randint(1, 5))]
    entries = {}
    for sign in signs:
        entries[(sign, NULL)] = rng.uniform(0.01, 0.5)
        for word in rng.sample(words, rng.randint(1, 4)):
            entries[(sign, word)] = rng.uniform(0.05, 1.0)
    order = rng.choice([1, 2])
    counts = {}
    for window in itertools.product([PAD_TOKEN, *words], repeat=order):
        if PAD_TOKEN not in window[1:] and rng.random() < 0.5:
            counts[window] = rng.randint(1, 5)
    lm = NgramModel(order, counts) if counts else _uniform_lm()
    config = DecoderConfig(
        lm_weight=rng.choice([0.0, 0.1, 0.5, 1.0]),
        max_queue_size=rng.randint(1, 6),
        fanout=rng.randint(1, 3),
        max_words_per_source=rng.randint(1, 3),
        literal_log_sum=rng.random() < 0.5,
    )
    return source, _table(entries), lm, config


class TestBeamExactness:
    """The capped, score-first search returns exactly what the plain
    search that builds and pushes every child returns."""

    def _assert_matches_unbounded(self, source, table, lm, config):
        result = decode(source, table, lm, config)
        targets, best, expansions, pops = unbounded_beam_search(tuple(source), table, lm, config)
        assert result.output.surfaces == targets
        assert result.priority == best  # exact, not approximate
        assert result.pops_per_queue == pops
        assert result.expansions == expansions

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_unbounded_search(self, seed):
        rng = random.Random(1000 + seed)
        for _ in range(40):
            self._assert_matches_unbounded(*_random_beam_instance(rng))

    def test_every_queue_size_and_scoring(self):
        _, table, lm, _ = _random_beam_instance(random.Random(99))
        source = ["S0", "S1", "S2", "S0", "S1"]
        for queue_size in range(1, 7):
            for literal in (False, True):
                config = DecoderConfig(max_queue_size=queue_size, literal_log_sum=literal)
                self._assert_matches_unbounded(source, table, lm, config)

    def test_priority_tie_goes_to_smaller_targets(self):
        # "b" from S is pushed before "a" from T at the same priority, into
        # a queue popped once: "a" must still be the one popped.
        table = _table({("S", "b"): 0.5, ("S", NULL): 0.001, ("T", "a"): 0.5, ("T", NULL): 0.001})
        config = DecoderConfig(max_queue_size=1)
        self._assert_matches_unbounded(["S", "T"], table, _uniform_lm(), config)
        assert decode(["S", "T"], table, _uniform_lm(), config).output.surfaces == ("a", "b")

    def test_full_tie_goes_to_first_pushed(self):
        # "a" from S and "a" from T tie on priority and targets; the one
        # pushed first (from S) is the only one popped. Popping the other
        # would leave S open for "b", and the bigram LM prefers "a b".
        table = _table(
            {("S", "a"): 0.5, ("S", "b"): 0.4, ("S", NULL): 0.001, ("T", "a"): 0.5, ("T", NULL): 0.001}
        )
        lm = NgramModel(2, {(PAD_TOKEN, "a"): 1, ("a", "b"): 9, ("a", "a"): 1})
        config = DecoderConfig(lm_weight=1.0, max_queue_size=1, fanout=2, max_words_per_source=1)
        self._assert_matches_unbounded(["S", "T"], table, lm, config)
        assert decode(["S", "T"], table, lm, config).output.surfaces == ("a", "a")


class TestTranslateCorpus:
    def _corpus(self, *pairs_text):
        return Corpus(
            tuple(
                SentencePair(i + 1, tokenize_asl(g), tokenize_english(e))
                for i, (g, e) in enumerate(pairs_text)
            )
        )

    def test_empty_corpus(self):
        table = _table({("S", "a"): 1.0})
        assert translate_corpus(Corpus(()), ASL_TO_ENG, table, _uniform_lm(), DecoderConfig()) == []

    def test_outputs_preserve_order(self):
        corpus = self._corpus(("S", "a"), ("T", "b"))
        table = _table({("S", "a"): 1.0, ("T", "b"): 1.0})
        results = translate_corpus(corpus, ASL_TO_ENG, table, _uniform_lm(), DecoderConfig())
        assert [pair_id for pair_id, _ in results] == [1, 2]
        assert results[0][1].surfaces == ("a",)
        assert results[1][1].surfaces == ("b",)

    def test_rerun_is_identical(self):
        corpus = self._corpus(("S T", "a b"), ("T S", "b a"))
        table = _table({("S", "a"): 0.7, ("S", "b"): 0.3, ("T", "b"): 0.6, ("T", NULL): 0.1})
        first = translate_corpus(corpus, ASL_TO_ENG, table, _uniform_lm(), DecoderConfig())
        second = translate_corpus(corpus, ASL_TO_ENG, table, _uniform_lm(), DecoderConfig())
        assert first == second

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            translate_corpus(Corpus(()), "sideways", _table({}), _uniform_lm(), DecoderConfig())
