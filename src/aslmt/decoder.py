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

A queue with r pops left never pops an entry that r others rank ahead
of, and entries only ever join a queue, so each queue keeps just its best
r entries (the final queue, popped once, keeps one) and a child is scored
before anything is built for it. This is exact: the search pops and
returns the same hypotheses, with the same priorities, as one that keeps
every child. Queued hypotheses are nodes that point to their parent; a
full ``Hypothesis`` is built only for the winner.

Priorities mix the two models: sum of per-step log translation
probabilities plus ``lm_weight`` times the target-side language model log
probability. A literal log-of-sum variant of the translation term is
available behind ``literal_log_sum`` for comparison. The search is greedy
within beams and makes no optimality guarantee.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Protocol, Sequence

from .align_model import NULL, SIGN_GIVEN_ENGLISH, TranslationTable, left_sum
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
        tm = math.log(left_sum(math.exp(step.tm_logprob) for step in hypothesis.steps))
    else:
        tm = hypothesis.tm_score
    return tm + config.lm_weight * hypothesis.lm_score


class _Options(NamedTuple):
    """What one source position can emit: its top-``fanout`` target words
    with their floored log t, and the log t of aligning it to NULL."""

    words: tuple[tuple[str, float], ...]
    null_logprob: float


def _source_options(source: Sequence[str], table: TranslationTable, fanout: int) -> list[_Options]:
    return [
        _Options(
            tuple(
                (target, math.log(max(prob, table.floor)))
                for target, prob in table.candidates(token)[:fanout]
            ),
            math.log(table.lookup(token, NULL)),
        )
        for token in source
    ]


def _children(
    options: Sequence[_Options],
    targets: tuple[str, ...],
    lm_score: float,
    covered: int,
    word_counts: Sequence[int],
    lm: LanguageModel,
    max_words: int,
) -> Iterator[tuple[int, str | None, float, float]]:
    """Every single-step extension of a hypothesis, in push order, as
    (source index, target word or None for a skip, log t, LM score).
    ``covered`` is a bitmask of the covered source positions."""
    for index, (words, null_logprob) in enumerate(options):
        if word_counts[index] < max_words:
            for target, tm_log in words:
                yield index, target, tm_log, lm_score + lm.extension_logprob(targets, target)
        if not covered >> index & 1:
            yield index, None, null_logprob, lm_score


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
    covered = 0
    for index in hypothesis.covered:
        covered |= 1 << index
    word_counts = [0] * len(source)
    for step in hypothesis.steps:
        if step.target is not None:
            word_counts[step.source_index] += 1
    children = _children(
        _source_options(source, table, config.fanout),
        hypothesis.targets,
        hypothesis.lm_score,
        covered,
        word_counts,
        lm,
        config.max_words_per_source,
    )
    return [
        Hypothesis(
            hypothesis.steps + (Step(target, index, tm_log),),
            hypothesis.covered | {index},
            hypothesis.tm_score + tm_log,
            lm_score,
            hypothesis.targets if target is None else hypothesis.targets + (target,),
        )
        for index, target, tm_log, lm_score in children
    ]


class _Node(NamedTuple):
    """A hypothesis in a queue. Nodes sort in queue order, by (negated
    priority, targets, push order); the steps are reached through
    ``parent``."""

    key: float
    targets: tuple[str, ...]
    order: int
    parent: "_Node | None"
    step: Step | None
    tm_score: float
    lm_score: float
    exp_sum: float  # running sum of exp(log t), kept for literal_log_sum
    covered: int  # bitmask of the covered source positions
    word_counts: tuple[int, ...]  # target words emitted per source position


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
    broken toward the lexicographically smaller rendered sentence.
    ``expansions`` counts every child scored, kept or not."""
    src = surfaces(source)
    length = len(src)
    if length == 0:
        return DecodeResult(_make_output((), table), 0.0, 0, ())

    options = _source_options(src, table, config.fanout)
    max_pops = config.max_queue_size
    weight = config.lm_weight
    literal = config.literal_log_sum
    queues: list[list[_Node]] = [[] for _ in range(length + 1)]
    queues[0].append(_Node(-0.0, (), 0, None, None, 0.0, 0.0, 0.0, 0, (0,) * length))
    order = itertools.count(1)
    expansions = 0
    pops = [0] * length
    for index in range(length):
        queue = queues[index]
        successor = queues[index + 1]
        successor_cap = max_pops if index + 1 < length else 1
        while pops[index] < max_pops and queue:
            node = queue.pop(0)
            pops[index] += 1
            queue_cap = max_pops - pops[index]
            targets, tm_score, exp_sum = node.targets, node.tm_score, node.exp_sum
            covered, word_counts = node.covered, node.word_counts
            children = _children(
                options, targets, node.lm_score, covered, word_counts, lm, config.max_words_per_source
            )
            for position, target, tm_log, lm_score in children:
                expansions += 1
                child_tm = tm_score + tm_log
                if literal:
                    child_exp_sum = exp_sum + math.exp(tm_log)
                    key = -(math.log(child_exp_sum) + weight * lm_score)
                else:
                    child_exp_sum = exp_sum
                    key = -(child_tm + weight * lm_score)
                child_covered = covered | 1 << position
                if child_covered == covered:
                    into, cap = queue, queue_cap
                else:
                    into, cap = successor, successor_cap
                # A queue never holds more than the pops it has left. When it
                # is full, a child scoring below its last entry could only be
                # popped after ``cap`` others, so it is never popped; entries
                # only ever join, so dropping it is exact. A tie on priority
                # goes on to the full (priority, targets, order) comparison.
                if len(into) == cap and (not cap or key > into[-1].key):
                    continue
                if target is None:
                    child_targets, child_counts = targets, word_counts
                else:
                    child_targets = targets + (target,)
                    child_counts = (
                        word_counts[:position]
                        + (word_counts[position] + 1,)
                        + word_counts[position + 1 :]
                    )
                insort(
                    into,
                    _Node(
                        key,
                        child_targets,
                        next(order),
                        node,
                        Step(target, position, tm_log),
                        child_tm,
                        lm_score,
                        child_exp_sum,
                        child_covered,
                        child_counts,
                    ),
                )
                if len(into) > cap:
                    into.pop()
    if not queues[length]:
        raise NoTranslationError("final queue is empty; expansion was over-restricted")
    best = queues[length][0]
    steps = []
    node = best
    while node.step is not None:
        steps.append(node.step)
        node = node.parent
    # Re-score the language model on the complete sentence; this matches
    # the incrementally accumulated value.
    final = Hypothesis(
        tuple(reversed(steps)),
        frozenset(range(length)),
        best.tm_score,
        lm.sequence_logprob(best.targets),
        best.targets,
    )
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
