"""Vectors over {0..q-1}^k with Hamming geometry and canonical enumeration.

Vectors are plain tuples of ints; a :class:`Space` carries the alphabet size
and dimension and owns validation, enumeration, ranking, and the text form
used by all file formats (k base-q digits, coordinate 1 leftmost).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError, ShapeError

Vec = tuple[int, ...]

# q^k above this is refused by enumerate(); everything in this package is desk
# scale and a larger request is almost certainly a mistake.
_ENUM_CAP = 10**7


@dataclass(frozen=True, order=True)
class Space:
    """The set of all k-tuples over the alphabet {0, ..., q-1}."""

    q: int
    k: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise InputError(f"alphabet size must be >= 2, got {self.q}")
        if self.k < 1:
            raise InputError(f"dimension must be >= 1, got {self.k}")

    @property
    def size(self) -> int:
        return self.q**self.k

    def validate(self, u: Vec) -> Vec:
        if len(u) != self.k:
            raise ShapeError(f"vector {u} has length {len(u)}, expected {self.k}")
        for s in u:
            if not 0 <= s < self.q:
                raise InputError(f"symbol {s} out of range for q={self.q} in {u}")
        return tuple(u)

    def enumerate(self) -> Iterator[Vec]:
        """All q^k vectors in lexicographic order, coordinate 1 most significant."""
        if self.size > _ENUM_CAP:
            raise CapacityError(f"q^k = {self.q}^{self.k} exceeds enumeration cap {_ENUM_CAP}")
        return itertools.product(range(self.q), repeat=self.k)

    def vectors(self) -> tuple[Vec, ...]:
        return tuple(self.enumerate())

    def rank(self, u: Vec) -> int:
        """Index of u in enumeration order."""
        self.validate(u)
        r = 0
        for s in u:
            r = r * self.q + s
        return r

    def unrank(self, r: int) -> Vec:
        if not 0 <= r < self.size:
            raise InputError(f"rank {r} out of range for {self}")
        out = []
        for _ in range(self.k):
            out.append(r % self.q)
            r //= self.q
        return tuple(reversed(out))

    def render(self, u: Vec) -> str:
        """k-digit base-q string, coordinate 1 leftmost (e.g. '012')."""
        self.validate(u)
        if self.q > 10:
            raise CapacityError(f"text form requires q <= 10, got q={self.q}")
        return "".join(str(s) for s in u)

    def parse(self, text: str) -> Vec:
        """Inverse of render; rejects wrong length and out-of-range digits."""
        if self.q > 10:
            raise CapacityError(f"text form requires q <= 10, got q={self.q}")
        if len(text) != self.k:
            raise InputError(f"vector text {text!r} has length {len(text)}, expected {self.k}")
        u = []
        for ch in text:
            if ch not in "0123456789":  # isdigit() admits "²", which int() rejects
                raise InputError(f"vector text {text!r} contains non-digit {ch!r}")
            s = int(ch)
            if s >= self.q:
                raise InputError(f"digit {s} out of range for q={self.q} in {text!r}")
            u.append(s)
        return tuple(u)


def hamming_distance(u: Vec, v: Vec) -> int:
    """Number of coordinates in which u and v differ."""
    if len(u) != len(v):
        raise ShapeError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


def distance_matrix(rows: Sequence[Vec], cols: Sequence[Vec] | None = None) -> np.ndarray:
    """Hamming distances between every word of rows and every word of cols.

    Returns an int16 array of shape (len(rows), len(cols)); cols defaults to
    rows. All words share one length. The distances accumulate one
    coordinate at a time, so memory stays at one rows x cols array whatever
    the word length.
    """
    words = rows if cols is None else [*rows, *cols]
    lengths = {len(w) for w in words}
    if len(lengths) > 1:
        raise ShapeError(f"words have mixed lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    a = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    b = a if cols is None else np.array(cols, dtype=np.intp).reshape(len(cols), n)
    out = np.zeros((len(a), len(b)), dtype=np.int16)
    for c in range(n):
        out += a[:, c, None] != b[None, :, c]
    return out


def hamming_weight(u: Vec) -> int:
    """Number of nonzero coordinates of u."""
    return sum(s != 0 for s in u)


def neighbors(space: Space, u: Vec) -> list[Vec]:
    """All vectors at Hamming distance exactly 1 from u.

    Order: coordinate ascending, replacement symbol ascending; length k(q-1).
    """
    space.validate(u)
    out = []
    for i in range(space.k):
        for s in range(space.q):
            if s != u[i]:
                out.append(u[:i] + (s,) + u[i + 1 :])
    return out
