"""Beam decoder over length-indexed priority queues.

A hypothesis is an ordered list of steps; each step either emits one
target token aligned to a source position or skips a source position
(aligns it to NULL, emitting nothing). Hypotheses live in queues indexed
by how many source positions they cover. The search pops at most
``max_queue_size`` hypotheses from each queue in index order; expanding a
popped hypothesis either advances it to the next queue (first time a
position is covered) or keeps it in the same queue (re-translating an
already covered position, which is how one source token can yield several
target words). The answer is the best hypothesis in the final queue.

Priorities mix the two models: sum of per-step log translation
probabilities plus ``lm_weight`` times the target-side language model log
probability. A literal log-of-sum variant of the translation term is
available behind ``literal_log_sum`` for comparison. The search is greedy
within beams and makes no optimality guarantee.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import NamedTuple, Protocol, Sequence

from .align_model import NULL, SIGN_GIVEN_ENGLISH, TranslationTable
from .corpus import Corpus, TokenSequence, asl_token, english_token, surfaces
from .errors import NoTranslationError

ASL_TO_ENG = "asl_to_eng"
ENG_TO_ASL = "eng_to_asl"

DIRECTIONS = (ASL_TO_ENG, ENG_TO_ASL)


class LanguageModel(Protocol):
    def sequence_logprob(self, tokens: Sequence[str]) -> float: ...

    def extension_logprob(self, prefix: Sequence[str], token: str) -> float: ...


@dataclass(frozen=True)
class DecoderConfig:
    lm_weight: float = 0.1
    max_queue_size: int = 20
    fanout: int = 5
    max_words_per_source: int = 3
    epsilon: float = 1.0
    literal_log_sum: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.lm_weight) or self.lm_weight < 0:
            raise ValueError("lm_weight must be finite and >= 0")
        if self.max_queue_size < 1:
            raise ValueError("max_queue_size must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.max_words_per_source < 1:
            raise ValueError("max_words_per_source must be >= 1")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")


class Step(NamedTuple):
    target: str | None  # None marks a skipped (NULL-aligned) source position
    source_index: int
    tm_logprob: float


@dataclass(frozen=True)
class Hypothesis:
    steps: tuple[Step, ...]
    covered: frozenset[int]
    tm_score: float
    lm_score: float
    targets: tuple[str, ...]


EMPTY_HYPOTHESIS = Hypothesis((), frozenset(), 0.0, 0.0, ())


@dataclass(frozen=True)
class DecodeResult:
    output: TokenSequence
    priority: float
    expansions: int
    pops_per_queue: tuple[int, ...]


def priority(hypothesis: Hypothesis, config: DecoderConfig) -> float:
    """Translation score plus weighted language-model score; the empty
    hypothesis scores 0."""
    if not hypothesis.steps:
        return 0.0
    if config.literal_log_sum:
        tm = math.log(sum(math.exp(step.tm_logprob) for step in hypothesis.steps))
    else:
        tm = hypothesis.tm_score
    return tm + config.lm_weight * hypothesis.lm_score


def expand(
    hypothesis: Hypothesis,
    source: Sequence[str],
    table: TranslationTable,
    lm: LanguageModel,
    config: DecoderConfig,
) -> list[Hypothesis]:
    """All single-step extensions: for every source position, append one of
    its top-``fanout`` candidate target words (allowed on already covered
    positions too, up to ``max_words_per_source`` words per position); for
    every uncovered position, also append a skip."""
    out: list[Hypothesis] = []
    word_counts = Counter(s.source_index for s in hypothesis.steps if s.target is not None)
    for index, source_token in enumerate(source):
        if word_counts[index] < config.max_words_per_source:
            for target, prob in table.candidates(source_token)[: config.fanout]:
                tm_log = math.log(max(prob, table.floor))
                out.append(
                    Hypothesis(
                        hypothesis.steps + (Step(target, index, tm_log),),
                        hypothesis.covered | {index},
                        hypothesis.tm_score + tm_log,
                        hypothesis.lm_score + lm.extension_logprob(hypothesis.targets, target),
                        hypothesis.targets + (target,),
                    )
                )
        if index not in hypothesis.covered:
            tm_log = math.log(table.lookup(source_token, NULL))
            out.append(
                Hypothesis(
                    hypothesis.steps + (Step(None, index, tm_log),),
                    hypothesis.covered | {index},
                    hypothesis.tm_score + tm_log,
                    hypothesis.lm_score,
                    hypothesis.targets,
                )
            )
    return out


def _make_output(targets: tuple[str, ...], table: TranslationTable) -> TokenSequence:
    factory = english_token if table.direction == SIGN_GIVEN_ENGLISH else asl_token
    return TokenSequence(tuple(factory(t) for t in targets))


def decode(
    source: TokenSequence | Sequence[str],
    table: TranslationTable,
    lm: LanguageModel,
    config: DecoderConfig,
) -> DecodeResult:
    """Beam search over coverage-indexed queues; deterministic, with ties
    broken toward the lexicographically smaller rendered sentence."""
    src = surfaces(source)
    length = len(src)
    if length == 0:
        return DecodeResult(_make_output((), table), 0.0, 0, ())

    queues: list[list] = [[] for _ in range(length + 1)]
    tiebreak = itertools.count()

    def push(hypothesis: Hypothesis) -> None:
        queue_index = len(hypothesis.covered)
        heapq.heappush(
            queues[queue_index],
            (-priority(hypothesis, config), hypothesis.targets, next(tiebreak), hypothesis),
        )

    push(EMPTY_HYPOTHESIS)
    expansions = 0
    pops = [0] * length
    for index in range(length):
        while pops[index] < config.max_queue_size and queues[index]:
            _, _, _, hypothesis = heapq.heappop(queues[index])
            pops[index] += 1
            for new_hypothesis in expand(hypothesis, src, table, lm, config):
                expansions += 1
                push(new_hypothesis)
    if not queues[length]:
        raise NoTranslationError("final queue is empty; expansion was over-restricted")
    _, _, _, best = heapq.heappop(queues[length])
    # Re-score the language model on the complete sentence; this matches
    # the incrementally accumulated value.
    final = replace(best, lm_score=lm.sequence_logprob(best.targets))
    return DecodeResult(
        _make_output(final.targets, table),
        priority(final, config),
        expansions,
        tuple(pops),
    )


def translate_corpus(
    corpus: Corpus,
    direction: str,
    table: TranslationTable,
    lm: LanguageModel,
    config: DecoderConfig,
) -> list[tuple[int, TokenSequence]]:
    """Decode the source side of every pair, preserving corpus order."""
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {direction!r}")
    results: list[tuple[int, TokenSequence]] = []
    for pair in corpus:
        source = pair.sign_side if direction == ASL_TO_ENG else pair.english_side
        try:
            result = decode(source, table, lm, config)
        except NoTranslationError as exc:
            raise NoTranslationError(f"pair {pair.pair_id}: {exc}") from exc
        results.append((pair.pair_id, result.output))
    return results
