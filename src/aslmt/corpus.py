"""Text data model: tokens, sentence pairs, corpora, splits, and file I/O.

Each language has exactly one tokenizer, used everywhere downstream
(language models, translation tables, BLEU scoring), so a sentence always
tokenizes the same way no matter which module touches it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, NoReturn, Sequence

from .errors import (
    AslmtError,
    CorpusFormatError,
    MalformedGlossError,
    SplitTooSmallError,
)

COMMA = ","
TERMINAL_PUNCTUATION = ".?!"

# filter_subset predicates
HAS_COMMA = "has_comma"
HAS_GESTURE = "has_gesture"


class TokenKind(Enum):
    WORD = "word"
    SIGN = "sign"
    GESTURE = "gesture"
    COMMA = "comma"


@dataclass(frozen=True)
class Token:
    surface: str
    kind: TokenKind


def classify_asl_surface(surface: str) -> TokenKind:
    if surface == COMMA:
        return TokenKind.COMMA
    if surface.startswith("[") and surface.endswith("]"):
        return TokenKind.GESTURE
    return TokenKind.SIGN


def english_token(surface: str) -> Token:
    return Token(surface, TokenKind.WORD)


def asl_token(surface: str) -> Token:
    return Token(surface, classify_asl_surface(surface))


@dataclass(frozen=True)
class TokenSequence:
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, index):
        return self.tokens[index]

    @cached_property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)

    def render(self) -> str:
        """Join surfaces with single spaces; re-tokenizing the result
        reproduces this sequence."""
        return " ".join(self.surfaces)


def surfaces(seq: TokenSequence | Sequence[str]) -> tuple[str, ...]:
    """Accept either a TokenSequence or a plain iterable of token strings."""
    if isinstance(seq, TokenSequence):
        return seq.surfaces
    if isinstance(seq, str):
        raise TypeError("expected a TokenSequence or an iterable of tokens, not raw text")
    return tuple(seq)


def _strip_terminal(text: str) -> str:
    s = text.strip()
    while s and s[-1] in TERMINAL_PUNCTUATION:
        s = s[:-1].rstrip()
    return s


def tokenize_english(text: str) -> TokenSequence:
    """Lowercase, strip sentence-final . ? !, split on whitespace.

    Internal apostrophes and hyphens are kept as-is. Empty or
    whitespace-only input yields an empty sequence.
    """
    stripped = _strip_terminal(text).lower()
    return TokenSequence(tuple(english_token(w) for w in stripped.split()))


def tokenize_asl(text: str) -> TokenSequence:
    """Tokenize an ASL gloss line.

    Signs keep their casing and internal hyphens. A comma becomes its own
    token even when written attached to the previous sign. A bracketed
    group like "[point]" is kept intact as a single gesture token.
    Sentence-final . ? ! are stripped.

    Raises MalformedGlossError on an unclosed or nested "[".
    """
    stripped = _strip_terminal(text)
    tokens: list[Token] = []
    buf: list[str] = []

    def flush() -> None:
        if buf:
            tokens.append(Token("".join(buf), TokenKind.SIGN))
            buf.clear()

    i = 0
    n = len(stripped)
    while i < n:
        ch = stripped[i]
        if ch.isspace():
            flush()
            i += 1
        elif ch == COMMA:
            flush()
            tokens.append(Token(COMMA, TokenKind.COMMA))
            i += 1
        elif ch == "[":
            flush()
            j = i + 1
            while j < n and stripped[j] not in "][" and not stripped[j].isspace():
                j += 1
            if j >= n or stripped[j] != "]":
                span = stripped[i:j]
                raise MalformedGlossError(f"unclosed gesture token {span!r} in {text!r}")
            tokens.append(Token(stripped[i : j + 1], TokenKind.GESTURE))
            i = j + 1
        else:
            buf.append(ch)
            i += 1
    flush()
    return TokenSequence(tuple(tokens))


@dataclass(frozen=True)
class SentencePair:
    pair_id: int
    sign_side: TokenSequence
    english_side: TokenSequence


@dataclass(frozen=True)
class Corpus:
    pairs: tuple[SentencePair, ...]
    provenance: str = ""

    def __post_init__(self) -> None:
        ids = [p.pair_id for p in self.pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("corpus pair ids must be unique")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)

    def __getitem__(self, index):
        return self.pairs[index]


@dataclass(frozen=True)
class DatasetSplit:
    train: Corpus
    dev: Corpus
    test: Corpus
    seed: int


def split_dataset(corpus: Corpus, seed: int) -> DatasetSplit:
    """Shuffle deterministically, put floor(80%) in a train pool and the
    rest in test, then move the dev set out of the train pool.

    The dev set holds 10 pairs for corpora of 50+ pairs, otherwise
    max(1, 10% of the train pool).
    """
    n = len(corpus)
    if n < 3:
        raise SplitTooSmallError(f"need at least 3 pairs to split, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    pool_size = n * 4 // 5
    pool = order[:pool_size]
    test_idx = order[pool_size:]
    dev_size = 10 if n >= 50 else max(1, len(pool) // 10)
    dev_idx = pool[:dev_size]
    train_idx = pool[dev_size:]

    def part(indices: list[int]) -> Corpus:
        return Corpus(tuple(corpus.pairs[i] for i in indices), corpus.provenance)

    return DatasetSplit(part(train_idx), part(dev_idx), part(test_idx), seed)


def filter_subset(corpus: Corpus, predicate: str) -> Corpus:
    """Keep pairs whose sign side contains a comma (has_comma) or a
    gesture token (has_gesture), preserving order."""
    if predicate == HAS_COMMA:
        kind = TokenKind.COMMA
    elif predicate == HAS_GESTURE:
        kind = TokenKind.GESTURE
    else:
        raise ValueError(f"unknown subset predicate: {predicate!r}")
    kept = tuple(p for p in corpus.pairs if any(t.kind is kind for t in p.sign_side))
    return Corpus(kept, corpus.provenance)


def is_utf8(text: str) -> bool:
    """False for text decoded with ``surrogateescape`` from bytes that are
    not valid UTF-8: they became lone surrogates, which valid UTF-8 text
    never contains."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class RecordReader:
    """Line-numbered reader behind every file loader in the package.

    Iterating yields each line without its newline, skipping blank lines
    and, with ``comments``, lines whose first non-blank character is "#".
    ``lineno`` is the number of the line last yielded, and every error
    raised through ``fail`` is an ``error`` prefixed with ``path:line``;
    a line that is not valid UTF-8 is reported that way too.
    """

    def __init__(self, path: str | Path, error: type[AslmtError], comments: bool = False) -> None:
        self.path = Path(path)
        self.error = error
        self.comments = comments
        self.lineno = 0

    def __iter__(self) -> Iterator[str]:
        # Undecodable bytes become lone surrogates (see is_utf8), so the
        # bad line is found and reported by number.
        with open(self.path, encoding="utf-8", errors="surrogateescape") as handle:
            for self.lineno, raw in enumerate(handle, start=1):
                line = raw.rstrip("\n")
                if not is_utf8(line):
                    self.fail("not valid UTF-8")
                if line.strip() and not (self.comments and line.lstrip().startswith("#")):
                    yield line

    def fail(self, message: str) -> NoReturn:
        raise self.error(f"{self.path}:{self.lineno}: {message}")

    def split(self, line: str, form: str) -> list[str]:
        """The TAB-separated fields of ``line``, as many as ``form`` (such
        as "count<TAB>sign") spells out."""
        fields = line.split("\t")
        if len(fields) != form.count("<TAB>") + 1:
            self.fail(f"expected '{form}', got {line!r}")
        return fields

    def key_value(self, line: str) -> tuple[str, str]:
        key, sep, value = line.partition("=")
        if not sep:
            self.fail(f"expected key=value, got {line!r}")
        return key.strip(), value.strip()

    def number(
        self,
        text: str,
        what: str,
        kind: type = float,
        low: float = -math.inf,
        high: float = math.inf,
    ) -> float:
        """``text`` parsed by ``kind`` (int or float); it must be finite and
        in [low, high]."""
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value <= high or value in (math.inf, -math.inf):
            self.fail(f"bad {what} {text!r}: expected a finite {kind.__name__} in [{low}, {high}]")
        return value


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file: one pair per line, gloss TAB english.

    Blank lines and lines whose first non-blank character is "#" are
    skipped.
    """
    reader = RecordReader(path, CorpusFormatError, comments=True)
    pairs: list[SentencePair] = []
    for line in reader:
        gloss, english = reader.split(line, "gloss<TAB>english")
        try:
            sign_side = tokenize_asl(gloss)
        except MalformedGlossError as exc:
            reader.fail(str(exc))
        english_side = tokenize_english(english)
        if not len(sign_side) or not len(english_side):
            reader.fail(f"empty side in {line!r}")
        pairs.append(SentencePair(len(pairs) + 1, sign_side, english_side))
    return Corpus(tuple(pairs), provenance=str(reader.path))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pair in corpus:
            handle.write(f"{pair.sign_side.render()}\t{pair.english_side.render()}\n")


def mini_corpus_path() -> Path:
    """Location of the bundled synthetic mini-corpus."""
    return Path(__file__).parent / "data" / "mini_corpus.txt"
