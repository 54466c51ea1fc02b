"""Language models: English n-gram scoring and the ASL unigram model.

Both models expose the same two methods the decoder relies on:
``sequence_logprob`` for a complete sentence and ``extension_logprob``
for the change in score when one token is appended. Sequence scoring is
implemented as a fold over extensions, so the two are consistent to the
last bit.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import COMMA, Corpus, RecordReader, TokenSequence, surfaces
from .errors import EmptyCorpusError, NgramFormatError

# Reserved left-context padding token; never a surface token and never
# scored as a token itself.
PAD_TOKEN = "<null>"

DEFAULT_FLOOR_PROB = 1e-7
DEFAULT_COMMA_BOOST = 2.0

Window = tuple[str, ...]


def _check_floor(floor_prob: float) -> None:
    # A floor above 1 would score an unseen token above a certain one.
    if not 0 < floor_prob <= 1:
        raise ValueError(f"floor_prob must be in (0, 1], got {floor_prob!r}")


class _ExtensionFold:
    """Scores a complete sentence as the fold of ``extension_logprob``
    over its tokens, which every language model here shares."""

    def sequence_logprob(self, tokens: Sequence[str]) -> float:
        total = 0.0
        for i, token in enumerate(tokens):
            total += self.extension_logprob(tokens[:i], token)
        return total


class NgramModel(_ExtensionFold):
    """Fixed-order n-gram model over padded windows.

    Probabilities are conditional: count(window) divided by the total
    count of windows sharing the same (n-1)-token prefix. Windows never
    seen in the counts score ``floor_prob``.
    """

    def __init__(
        self,
        order: int,
        counts: Mapping[Window, int],
        floor_prob: float = DEFAULT_FLOOR_PROB,
    ) -> None:
        if not 1 <= order <= 5:
            raise ValueError(f"order must be in 1..5, got {order}")
        _check_floor(floor_prob)
        self.order = order
        self.floor_prob = floor_prob
        self.counts: dict[Window, int] = {}
        prefix_totals: dict[Window, int] = {}
        for window, count in counts.items():
            window = tuple(window)
            if len(window) != order:
                raise ValueError(f"window {window!r} does not match order {order}")
            if count <= 0:
                raise ValueError(f"count for {window!r} must be positive")
            self.counts[window] = self.counts.get(window, 0) + count
        for window, count in self.counts.items():
            prefix = window[:-1]
            prefix_totals[prefix] = prefix_totals.get(prefix, 0) + count
        self.probs: dict[Window, float] = {
            window: count / prefix_totals[window[:-1]]
            for window, count in self.counts.items()
        }

    def extension_logprob(self, prefix: Sequence[str], token: str) -> float:
        context_len = self.order - 1
        tail = tuple(prefix[len(prefix) - context_len :]) if context_len else ()
        context = (PAD_TOKEN,) * (context_len - len(tail)) + tail
        return math.log(self.probs.get(context + (token,), self.floor_prob))


def english_logprob(model: NgramModel, sentence: TokenSequence | Sequence[str]) -> float:
    """log P(sentence) under the n-gram model: one window per token, with
    n-1 leading padding tokens. An empty sentence scores 0.0."""
    return model.sequence_logprob(surfaces(sentence))


def ngram_counts(sentences: Iterable[Sequence[str]], order: int) -> dict[Window, int]:
    """Count padded windows over tokenized sentences."""
    counts: dict[Window, int] = {}
    pad = (PAD_TOKEN,) * (order - 1)
    for sentence in sentences:
        padded = pad + tuple(sentence)
        for i in range(len(sentence)):
            window = padded[i : i + order]
            counts[window] = counts.get(window, 0) + 1
    return counts


def build_english_model(
    corpus: Corpus, order: int, floor_prob: float = DEFAULT_FLOOR_PROB
) -> NgramModel:
    if not len(corpus):
        raise EmptyCorpusError("cannot build a language model from an empty corpus")
    counts = ngram_counts((p.english_side.surfaces for p in corpus), order)
    return NgramModel(order, counts, floor_prob)


def load_ngram_file(
    path: str | Path, order: int, floor_prob: float = DEFAULT_FLOOR_PROB
) -> NgramModel:
    """Read an n-gram frequency file: one record per line, a decimal count,
    a TAB, then the n space-separated tokens. Duplicate windows sum."""
    reader = RecordReader(path, NgramFormatError)
    counts: dict[Window, int] = {}
    for line in reader:
        count_str, tokens = reader.split(line, "count<TAB>tokens")
        count = reader.number(count_str, "count", int, low=1)
        window = tuple(tokens.split())
        if len(window) != order:
            reader.fail(f"expected {order} tokens, got {len(window)}")
        counts[window] = counts.get(window, 0) + count
    return NgramModel(order, counts, floor_prob)


def save_ngram_file(model: NgramModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for window in sorted(model.counts):
            handle.write(f"{model.counts[window]}\t{' '.join(window)}\n")


class AslUnigramModel(_ExtensionFold):
    """Unigram model over signs with a comma-neighbor adjustment.

    Every sign-side token (including gestures and commas) gets a relative
    frequency. Around each comma the score is reweighted: the token just
    before the comma is damped by ``comma_boost`` and the token just after
    it is boosted by the same factor (capped at probability 1). This
    favors an uncommon sign before the comma and a common one after it.
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        comma_boost: float = DEFAULT_COMMA_BOOST,
        floor_prob: float = DEFAULT_FLOOR_PROB,
    ) -> None:
        if not counts:
            raise EmptyCorpusError("ASL unigram model needs at least one sign")
        if not math.isfinite(comma_boost) or comma_boost < 1.0:
            raise ValueError("comma_boost must be finite and >= 1")
        _check_floor(floor_prob)
        self.counts = dict(counts)
        self.comma_boost = comma_boost
        self.floor_prob = floor_prob
        total = sum(self.counts.values())
        self.unigram: dict[str, float] = {s: c / total for s, c in self.counts.items()}

    def extension_logprob(self, prefix: Sequence[str], token: str) -> float:
        prob = self.unigram.get(token, self.floor_prob)
        if prefix and prefix[-1] == COMMA:
            prob = min(1.0, self.comma_boost * prob)
        delta = math.log(prob)
        if token == COMMA and prefix:
            # The token emitted just before this comma is retroactively
            # damped; dividing its probability by the boost shifts the
            # total score by exactly -log(boost).
            delta -= math.log(self.comma_boost)
        return delta


def build_asl_model(
    corpus: Corpus,
    comma_boost: float = DEFAULT_COMMA_BOOST,
    floor_prob: float = DEFAULT_FLOOR_PROB,
) -> AslUnigramModel:
    if not len(corpus):
        raise EmptyCorpusError("cannot build a language model from an empty corpus")
    counts: dict[str, int] = {}
    for pair in corpus:
        for surface in pair.sign_side.surfaces:
            counts[surface] = counts.get(surface, 0) + 1
    return AslUnigramModel(counts, comma_boost, floor_prob)


def asl_logprob(model: AslUnigramModel, sentence: TokenSequence | Sequence[str]) -> float:
    return model.sequence_logprob(surfaces(sentence))


def save_asl_model(model: AslUnigramModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"asl_unigram comma_boost {model.comma_boost!r} floor_prob {model.floor_prob!r}\n"
        )
        for sign in sorted(model.counts):
            handle.write(f"{model.counts[sign]}\t{sign}\n")


def load_asl_model(path: str | Path) -> AslUnigramModel:
    reader = RecordReader(path, NgramFormatError)
    lines = iter(reader)
    header = next(lines, "").split()
    if len(header) != 5 or header[:2] != ["asl_unigram", "comma_boost"] or header[3] != "floor_prob":
        reader.fail("bad ASL model header")
    comma_boost = reader.number(header[2], "comma_boost")
    floor_prob = reader.number(header[4], "floor_prob")
    counts: dict[str, int] = {}
    for line in lines:
        count_str, sign = reader.split(line, "count<TAB>sign")
        counts[sign] = counts.get(sign, 0) + reader.number(count_str, "count", int, low=1)
    try:
        return AslUnigramModel(counts, comma_boost, floor_prob)
    except ValueError as exc:
        # Counts are checked above, so only the header values can be out of range.
        raise NgramFormatError(f"{reader.path}:1: {exc}") from None
