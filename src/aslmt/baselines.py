"""Rule-based baselines for both translation directions.

English-to-ASL keeps only the rarest words (highest unigram cost above a
threshold) and maps each through a bilingual lexicon, preserving order.
ASL-to-English maps each sign through the lexicon and then inserts at
most one helper word per gap, choosing the assignment that maximizes the
bigram log-probability of the resulting sentence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .align_model import NULL, SIGN_GIVEN_ENGLISH, TranslationTable
from .corpus import (
    Corpus,
    RecordReader,
    TokenKind,
    TokenSequence,
    asl_token,
    english_token,
    surfaces,
)
from .errors import AslmtError, EmptyCorpusError
from .lang_model import NgramModel

DEFAULT_HELPERS = (
    "a", "an", "the", "is", "are", "was", "were", "do", "does", "did",
    "to", "of", "and", "in", "that", "you", "it",
)

DEFAULT_COST_PERCENTILE = 0.6


@dataclass(frozen=True)
class BilingualLexicon:
    """Word <-> sign dictionary with identity fallback: an unknown English
    word maps to its uppercase form, an unknown sign to its lowercase
    form."""

    word_to_sign: dict[str, str]
    sign_to_word: dict[str, str]

    def to_sign(self, word: str) -> str:
        return self.word_to_sign.get(word, word.upper())

    def to_word(self, sign: str) -> str:
        return self.sign_to_word.get(sign, sign.lower())

    @classmethod
    def from_table(cls, table: TranslationTable) -> "BilingualLexicon":
        """Derive both maps from a trained t(sign | english) table:
        sign -> argmax over english words of t, and english word ->
        argmax over signs of the same t. Ties break alphabetically."""
        if table.direction != SIGN_GIVEN_ENGLISH:
            raise ValueError("lexicon derivation expects the sign-given-english table")
        sign_to_word: dict[str, str] = {}
        for sign in sorted(table.source_vocab):
            options = table.candidates(sign)
            if options:
                sign_to_word[sign] = options[0][0]
        # higher probability wins; on equal probability keep the
        # alphabetically smaller sign
        best: dict[str, tuple[float, str]] = {}
        for (sign, word), prob in table.t.items():
            if word is NULL:
                continue
            current = best.get(word)
            if current is None or prob > current[0] or (prob == current[0] and sign < current[1]):
                best[word] = (prob, sign)
        word_to_sign = {word: sign for word, (_, sign) in best.items()}
        return cls(word_to_sign, sign_to_word)


@dataclass(frozen=True)
class UnigramCost:
    """Word rarity under an order-1 English model: cost(w) = -log p(w),
    so rarer means costlier. ``threshold`` separates "important" words."""

    model: NgramModel
    threshold: float

    def __post_init__(self) -> None:
        if self.model.order != 1:
            raise ValueError("unigram cost needs an order-1 model")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")

    def cost(self, word: str) -> float:
        return -self.model.extension_logprob((), word)

    @classmethod
    def from_corpus(
        cls, corpus: Corpus, model: NgramModel, fraction: float = DEFAULT_COST_PERCENTILE
    ) -> "UnigramCost":
        """Threshold at the given percentile (nearest rank) of the costs of
        all English token occurrences in the corpus."""
        costs = sorted(
            -model.extension_logprob((), word)
            for pair in corpus
            for word in pair.english_side.surfaces
        )
        if not costs:
            raise EmptyCorpusError("no English tokens to derive a cost threshold from")
        index = max(0, math.ceil(fraction * len(costs)) - 1)
        return cls(model, costs[index])


def baseline_eng_to_asl(
    sentence: TokenSequence | Sequence[str], cost: UnigramCost, lexicon: BilingualLexicon
) -> TokenSequence:
    """Keep words costlier than the threshold, in order, mapped to signs.
    Never returns empty output for non-empty input: if everything falls
    at or below the threshold, the single costliest word survives."""
    words = list(surfaces(sentence))
    if not words:
        return TokenSequence(())
    kept = [w for w in words if cost.cost(w) > cost.threshold]
    if not kept:
        kept = [max(words, key=cost.cost)]
    return TokenSequence(tuple(asl_token(lexicon.to_sign(w)) for w in kept))


def baseline_asl_to_eng(
    signs: TokenSequence,
    lexicon: BilingualLexicon,
    bigram: NgramModel,
    helpers: Sequence[str] = DEFAULT_HELPERS,
) -> TokenSequence:
    """Map signs to a content-word skeleton (commas and gestures dropped),
    then pick 0 or 1 helper word for each gap (including sentence start
    and end) by exact dynamic programming over bigram log-probability.

    Ties prefer fewer insertions, then the lexicographically smaller
    sentence.
    """
    if bigram.order != 2:
        raise ValueError("helper insertion needs an order-2 model")
    skeleton = [lexicon.to_word(t.surface) for t in signs if t.kind is TokenKind.SIGN]
    if not skeleton:
        return TokenSequence(())

    def extend(last: str | None, word: str) -> float:
        return bigram.extension_logprob((last,) if last is not None else (), word)

    def beats(a: tuple[float, int, tuple[str, ...]], b: tuple[float, int, tuple[str, ...]]) -> bool:
        if a[0] != b[0]:
            return a[0] > b[0]
        if a[1] != b[1]:
            return a[1] < b[1]
        return a[2] < b[2]

    def consider(
        states: dict[str | None, tuple[float, int, tuple[str, ...]]],
        key: str | None,
        candidate: tuple[float, int, tuple[str, ...]],
    ) -> None:
        current = states.get(key)
        if current is None or beats(candidate, current):
            states[key] = candidate

    # state: last emitted word -> best (score, insertions, words so far)
    states: dict[str | None, tuple[float, int, tuple[str, ...]]] = {None: (0.0, 0, ())}
    for position in range(len(skeleton) + 1):
        with_gap: dict[str | None, tuple[float, int, tuple[str, ...]]] = {}
        for last, (score, inserted, words) in states.items():
            consider(with_gap, last, (score, inserted, words))
            for helper in helpers:
                consider(
                    with_gap,
                    helper,
                    (score + extend(last, helper), inserted + 1, words + (helper,)),
                )
        states = with_gap
        if position < len(skeleton):
            word = skeleton[position]
            with_word: dict[str | None, tuple[float, int, tuple[str, ...]]] = {}
            for last, (score, inserted, words) in states.items():
                consider(with_word, word, (score + extend(last, word), inserted, words + (word,)))
            states = with_word

    best = None
    for candidate in states.values():
        if best is None or beats(candidate, best):
            best = candidate
    return TokenSequence(tuple(english_token(w) for w in best[2]))


def load_helper_words(path: str | Path) -> tuple[str, ...]:
    """One helper word per line; blank lines and # comments skipped."""
    return tuple(line.strip() for line in RecordReader(path, AslmtError, comments=True))
