"""Word-level translation table and its EM trainer.

The table holds t(s, e) = p(source token s | target token e), column
normalized over s for every target token e including the virtual NULL
word. Training marginalizes over per-position alignment variables, where
each source position aligns to one target position or to NULL; with all
alignments of a given length equally likely the sentence likelihood is

    p(S | E) = epsilon / (1 + I)^J * prod_j sum_i t(s_j, e_i)

which the closed-form scorer below uses directly and the brute-force
scorer re-derives by enumerating alignment vectors.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus, RecordReader, SentencePair, TokenSequence, surfaces
from .errors import EmptyCorpusError, EnumerationSizeError, TableFormatError

SIGN_GIVEN_ENGLISH = "sign_given_english"
ENGLISH_GIVEN_SIGN = "english_given_sign"

# In-memory stand-in for the virtual NULL target word.
NULL = None

DEFAULT_TABLE_FLOOR = 1e-9

BRUTE_FORCE_LIMIT = 10**6

TableKey = tuple[str, "str | None"]


def left_sum(values: Iterable[float]) -> float:
    """Float sum added strictly left to right. ``sum()`` is compensated
    from Python 3.12 on, so its last bits (and every table and score built
    on them) would depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


class TranslationTable:
    """Mapping (source token, target token or NULL) -> probability.

    Entries exist only for co-occurring pairs plus (s, NULL) for every
    source token. ``lookup`` never returns less than ``floor`` so scores
    built from it stay finite; EM itself works on the raw entries.
    """

    def __init__(
        self,
        t: dict[TableKey, float],
        direction: str,
        epsilon: float = 1.0,
        floor: float = DEFAULT_TABLE_FLOOR,
    ) -> None:
        if direction not in (SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN):
            raise ValueError(f"unknown direction {direction!r}")
        if floor <= 0:
            raise ValueError("floor must be positive")
        self.t = dict(t)
        self.direction = direction
        self.epsilon = epsilon
        self.floor = floor
        self.source_vocab = frozenset(s for s, _ in self.t)
        self.target_vocab = frozenset(e for _, e in self.t if e is not NULL)
        self._candidates: dict[str, tuple[tuple[str, float], ...]] | None = None

    def lookup(self, source: str, target: str | None) -> float:
        value = self.t.get((source, target))
        if value is None or value < self.floor:
            return self.floor
        return value

    def candidates(self, source: str) -> tuple[tuple[str, float], ...]:
        """Real target words that have an entry for this source token,
        best probability first (ties broken alphabetically)."""
        if self._candidates is None:
            by_source: dict[str, list[tuple[str, float]]] = {}
            for (s, e), prob in self.t.items():
                if e is not NULL:
                    by_source.setdefault(s, []).append((e, prob))
            for options in by_source.values():
                options.sort(key=lambda item: (-item[1], item[0]))
            self._candidates = {s: tuple(opts) for s, opts in by_source.items()}
        return self._candidates.get(source, ())

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"direction {self.direction} epsilon {self.epsilon!r}\n")
            records = sorted(
                self.t.items(), key=lambda item: (item[0][1] or "NULL", item[0][0])
            )
            for (source, target), prob in records:
                target_str = "NULL" if target is NULL else target
                handle.write(f"{source}\t{target_str}\t{prob:.17g}\n")

    @classmethod
    def load(cls, path: str | Path, floor: float = DEFAULT_TABLE_FLOOR) -> "TranslationTable":
        reader = RecordReader(path, TableFormatError)
        lines = iter(reader)
        header = next(lines, "").split()
        if len(header) != 4 or header[0] != "direction" or header[2] != "epsilon":
            reader.fail("bad table header")
        if header[1] not in (SIGN_GIVEN_ENGLISH, ENGLISH_GIVEN_SIGN):
            reader.fail(f"unknown direction {header[1]!r}")
        epsilon = reader.number(header[3], "epsilon")
        t: dict[TableKey, float] = {}
        for line in lines:
            source, target_str, prob_str = reader.split(line, "source<TAB>target<TAB>prob")
            target = NULL if target_str == "NULL" else target_str
            t[(source, target)] = reader.number(prob_str, "probability", low=0.0, high=1.0)
        return cls(t, header[1], epsilon, floor)


@dataclass(frozen=True)
class EmConfig:
    max_iterations: int = 100
    convergence_tol: float = 1e-4
    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not math.isfinite(self.convergence_tol) or self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be finite and positive")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")


@dataclass(frozen=True)
class EmResult:
    table: TranslationTable
    iterations: int
    log_likelihoods: tuple[float, ...]

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]


@dataclass(frozen=True)
class AlignmentPosterior:
    """P(a_j = i | S, E) for source positions j and target positions i,
    where column 0 is NULL. Each row sums to 1."""

    matrix: tuple[tuple[float, ...], ...]


def _pair_sides(pair: SentencePair, direction: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if direction == SIGN_GIVEN_ENGLISH:
        return pair.sign_side.surfaces, pair.english_side.surfaces
    return pair.english_side.surfaces, pair.sign_side.surfaces


def init_uniform(corpus: Corpus, direction: str, epsilon: float = 1.0) -> TranslationTable:
    """Uniform start: each target token's column is uniform over the
    source tokens it co-occurs with; the NULL column is uniform over the
    whole source vocabulary."""
    if not len(corpus):
        raise EmptyCorpusError("cannot initialize a table from an empty corpus")
    source_vocab: dict[str, None] = {}
    support: dict[str, dict[str, None]] = {}
    for pair in corpus:
        src, tgt = _pair_sides(pair, direction)
        for s in src:
            source_vocab[s] = None
        for e in tgt:
            bucket = support.setdefault(e, {})
            for s in src:
                bucket[s] = None
    t: dict[TableKey, float] = {}
    for e, bucket in support.items():
        prob = 1.0 / len(bucket)
        for s in bucket:
            t[(s, e)] = prob
    null_prob = 1.0 / len(source_vocab)
    for s in source_vocab:
        t[(s, NULL)] = null_prob
    return TranslationTable(t, direction, epsilon)


def _floored_row(table: TranslationTable, source: str, targets: Sequence[str]) -> list[float]:
    """t(source, NULL) then t(source, e) for each target token, floored."""
    return [table.lookup(source, NULL)] + [table.lookup(source, e) for e in targets]


def alignment_posterior(
    source: TokenSequence | Sequence[str],
    target: TokenSequence | Sequence[str],
    table: TranslationTable,
) -> AlignmentPosterior:
    tgt = surfaces(target)
    rows = []
    for s in surfaces(source):
        values = _floored_row(table, s, tgt)
        total = left_sum(values)
        rows.append(tuple(v / total for v in values))
    return AlignmentPosterior(tuple(rows))


# The slot of a cell whose key the table lacks: the trailing 0.0 of every
# slot value list.
_MISSING = -1


class _EmPlan:
    """The corpus compiled against one table's keys, so that every EM
    iteration reads and writes flat lists instead of hashing keys.

    Each table key the corpus touches gets a slot, in the order the
    E-step first meets it; that is the insertion order of a dict of
    counts, so tables built from slots keep the same key order. Each slot
    records the column of its target word. Each pair keeps its constant
    log-likelihood term, its target columns (NULL first) and, per source
    position, the slots of its row.
    """

    def __init__(self, corpus: Corpus, table: TranslationTable) -> None:
        slot_of: dict[TableKey, int] = {}
        column_of: dict[str | None, int] = {}
        columns: list[int] = []
        pairs = []
        log_epsilon = math.log(table.epsilon)
        for pair in corpus:
            src, tgt = _pair_sides(pair, table.direction)
            targets = (NULL, *tgt)
            target_columns = tuple(column_of.setdefault(e, len(column_of)) for e in targets)
            rows = []
            for s in src:
                row = []
                for e, column in zip(targets, target_columns):
                    key = (s, e)
                    slot = slot_of.get(key)
                    if slot is None:
                        if key not in table.t:
                            row.append(_MISSING)
                            continue
                        slot = slot_of[key] = len(columns)
                        columns.append(column)
                    row.append(slot)
                rows.append(tuple(row))
            constant = log_epsilon - len(src) * math.log(1 + len(tgt))
            pairs.append((constant, target_columns, tuple(rows)))
        self.keys = tuple(slot_of)
        self.columns = tuple(columns)
        self.column_count = len(column_of)
        self.pairs = tuple(pairs)
        self.start = [table.t[key] for key in self.keys] + [0.0]
        self.direction = table.direction
        self.epsilon = table.epsilon
        self.floor = table.floor

    def table(self, inputs: list[float], outputs: list[float]) -> TranslationTable:
        """The table an update of ``inputs`` produced: the keys it touched
        with a non-zero value, holding ``outputs``."""
        t = {key: new for key, old, new in zip(self.keys, inputs, outputs) if old != 0.0}
        return TranslationTable(t, self.direction, self.epsilon, self.floor)


def _em_update(plan: _EmPlan, values: list[float]) -> tuple[list[float], float]:
    """One EM update of the slot values, and the raw (unfloored) training
    log-likelihood of the input, summed from the same row totals."""
    counts = [0.0] * len(values)
    column_totals = [0.0] * plan.column_count
    log_likelihood = 0.0
    log = math.log
    for constant, target_columns, rows in plan.pairs:
        log_likelihood += constant
        for slots in rows:
            row = [values[slot] for slot in slots]
            total = left_sum(row)
            log_likelihood += log(total)
            for slot, column, value in zip(slots, target_columns, row):
                if value == 0.0:
                    continue
                weight = value / total
                counts[slot] += weight
                column_totals[column] += weight
    updated = [
        count / column_totals[column] if value != 0.0 else 0.0
        for count, column, value in zip(counts, plan.columns, values)
    ]
    updated.append(0.0)
    return updated, log_likelihood


def em_step(corpus: Corpus, table: TranslationTable) -> TranslationTable:
    """One expectation-maximization update; the input table is unchanged.

    E-step: per source position, distribute unit mass over the target
    positions (NULL first) proportionally to the current t values.
    M-step: renormalize the accumulated counts per target column.
    """
    plan = _EmPlan(corpus, table)
    return plan.table(plan.start, _em_update(plan, plan.start)[0])


def em_train(corpus: Corpus, config: EmConfig, direction: str) -> EmResult:
    """Initialize uniformly once, then iterate em_step until the largest
    absolute change in any t entry drops below the tolerance or the
    iteration cap is hit.

    The corpus is compiled to slots once (``_EmPlan``) and every
    iteration runs on flat value lists, with the same float operations
    in the same order as a dict-based update, so the tables are bit for
    bit those of repeated ``em_step`` calls. ``log_likelihoods[k]`` is
    the raw training log-likelihood of the k-th table (0 is the uniform
    start). Each update yields it for its input table, so one more
    E-step scores the final table.
    """
    plan = _EmPlan(corpus, init_uniform(corpus, direction, config.epsilon))
    values = plan.start
    log_likelihoods = []
    iterations = 0
    for _ in range(config.max_iterations):
        updated, log_likelihood = _em_update(plan, values)
        log_likelihoods.append(log_likelihood)
        iterations += 1
        # A dropped key's slot holds 0.0, as ``t.get(key, 0.0)`` would read it.
        delta = max(map(abs, map(operator.sub, updated, values)))
        previous, values = values, updated
        if delta < config.convergence_tol:
            break
    log_likelihoods.append(_em_update(plan, values)[1])
    return EmResult(plan.table(previous, values), iterations, tuple(log_likelihoods))


def translation_logprob(
    source: TokenSequence | Sequence[str],
    target: TokenSequence | Sequence[str],
    table: TranslationTable,
    epsilon: float = 1.0,
) -> float:
    """log p(S | E) in closed form, equal to the sum over all alignment
    vectors. Unknown pairs contribute the table floor."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    src = surfaces(source)
    tgt = surfaces(target)
    total = math.log(epsilon) - len(src) * math.log(1 + len(tgt))
    for s in src:
        total += math.log(left_sum(_floored_row(table, s, tgt)))
    return total


def brute_force_logprob(
    source: TokenSequence | Sequence[str],
    target: TokenSequence | Sequence[str],
    table: TranslationTable,
    epsilon: float = 1.0,
) -> float:
    """log p(S | E) by explicit enumeration of all (1 + I)^J alignment
    vectors. Guarded against blowup; used as the oracle for the closed
    form."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    src = surfaces(source)
    tgt = surfaces(target)
    j, i = len(src), len(tgt)
    if (1 + i) ** j > BRUTE_FORCE_LIMIT:
        raise EnumerationSizeError(
            f"(1+{i})^{j} alignments exceed the {BRUTE_FORCE_LIMIT} enumeration guard"
        )
    base = epsilon / (1 + i) ** j
    total = 0.0
    for alignment in itertools.product(range(i + 1), repeat=j):
        prob = base
        for pos, a in enumerate(alignment):
            target_token = NULL if a == 0 else tgt[a - 1]
            prob *= table.lookup(src[pos], target_token)
        total += prob
    return math.log(total)
