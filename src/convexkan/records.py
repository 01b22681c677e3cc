"""The reader of mesh, dataset, checkpoint and symbolic files: a cursor over
their records, one per non-blank line of tag words and values, that checks
each record's tag, value count and finite numbers, naming the line that
fails."""
from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ConfigurationError, ConvexKanError, DataError


def _short(word: str) -> str:
    """A word as a refusal quotes it: at most 24 characters."""
    return word if len(word) <= 24 else word[:21] + "..."


def _number(word: str) -> float:
    try:
        v = float(word)
    except ValueError:
        raise ValueError(f"{_short(word)!r} is not a number") from None
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {_short(word)}")
    return v


def _count(word: str) -> int:
    try:
        v = int(word)
    except ValueError:
        raise ValueError(f"{_short(word)!r} is not a count or an index") from None
    if not 0 <= v < 2**63:
        raise ValueError(f"{_short(word)} is not a count or an index")
    return v


SLOTS = {"%s": str, "%d": _count, "%f": _number}  # a word, a count or index, a number


def _quoted(line: str) -> str:
    """A record as a refusal quotes it: whole if short, else its tag and
    first three values, each cut to 24 characters, and its count of values."""
    if len(line) <= 80:
        return repr(line)
    words = line.split()
    return f"{' '.join(_short(w) for w in words[:4])!r} ... ({len(words) - 1} values)"


class Records:
    """Cursor over the records of one ``kind`` file; ``context`` is a prefix
    of every message, such as ``"activation 0,1,0: "`` while reading one.
    Lines after the first that start with ``comment`` are comments."""

    def __init__(self, text: str, kind: str, comment: str | None = None):
        self.kind, self.context, self.pos = kind, "", 0
        numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if comment:
            numbered[1:] = [(n, ln) for n, ln in numbered[1:] if not ln.startswith(comment)]
        self.numbers = [n for n, _ in numbered]
        self.lines = [ln for _, ln in numbered]

    def error(self, message: str, pos: int | None = None) -> DataError:
        """The error at record ``pos``, by default the last one taken."""
        pos = self.pos - 1 if pos is None else pos
        where = f"line {self.numbers[pos]}" if pos < len(self.numbers) else "end of file"
        return DataError(f"{self.kind} file, {where}: {self.context}{message}")

    def take(self, pattern: str, count: int | None = 0, slot: str = "%f") -> list:
        """The values of the next record: ``pattern``, where ``%s``, ``%d`` and ``%f`` stand
        for values, then ``count`` values of kind ``slot`` (any number if None)."""
        line = self.lines[self.pos] if self.pos < len(self.lines) else ""
        self.pos += 1
        spec, words = pattern.split(), line.split()
        n = len(spec)
        if len(words) < n or count not in (None, len(words) - n) or any(
                s != w for s, w in zip(spec, words) if s not in SLOTS):
            k = count or 0  # a long run of values is stated by its count
            want = " ".join(spec + [slot] * k) if k <= 3 else f"{' '.join(spec)} <{k} x {slot}>"
            raise self.error(f"expected {want!r}, got {_quoted(line)}")
        try:
            return [SLOTS[s](w) for s, w in zip(spec, words) if s in SLOTS] + list(
                map(SLOTS[slot], words[n:]))
        except ValueError as exc:
            raise self.error(f"{exc} in {_quoted(line)}") from None

    def rows(self, n: int, width: int, slot: str = "%f") -> np.ndarray:
        """The next ``n`` records as an ``(n, width)`` array of ``slot`` values."""
        dtype = np.float64 if slot == "%f" else np.int64
        words = [ln.split() for ln in self.lines[self.pos : self.pos + n]]
        with contextlib.suppress(ValueError, OverflowError):
            a = np.array(words, dtype=dtype).reshape(len(words), width)
            if len(words) == n and np.all(np.isfinite(a) if slot == "%f" else a >= 0):
                self.pos += n
                return a
        # record by record, to name the first bad one
        return np.array([self.take("", width, slot) for _ in range(n)], dtype=dtype)

    @contextlib.contextmanager
    def block(self, header: str):
        """Take a block's ``header`` and give its values; a refused ``row`` (-1: the
        header) of the block read inside is named at its line."""
        values, start = self.take(header), self.pos  # start: the block's first row
        try:
            yield values
        except ConvexKanError as exc:
            if exc.row is None:
                raise
            raise self.error(str(exc), start + exc.row) from None

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        """Leaving the read of a whole file: a ConfigurationError becomes a
        DataError at the last record, and a read that succeeded took them all."""
        if isinstance(exc, ConfigurationError):
            raise self.error(str(exc)) from None
        if exc is None and self.pos < len(self.lines):
            raise self.error(f"expected the end, got {_quoted(self.lines[self.pos])}", self.pos)
