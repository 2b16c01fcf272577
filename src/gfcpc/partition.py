"""Partitions of {0..q-1}^k and the lattice operations built on them.

Blocks are canonically ordered by their lexicographically smallest member, so
two partitions with the same blocks compare equal regardless of construction
order. Construction validates disjointness and coverage eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from .errors import InputError, ShapeError
from .space import Space, Vec


@dataclass(frozen=True)
class Partition:
    """A partition of a space into disjoint nonempty blocks with O(1) lookup."""

    space: Space
    blocks: tuple[frozenset[Vec], ...]
    _index: dict[Vec, int] = field(compare=False, repr=False, default_factory=dict)

    @staticmethod
    def from_blocks(space: Space, blocks: Iterable[Iterable[Vec]]) -> "Partition":
        """Validate and canonicalize raw block sets into a Partition."""
        sets = []
        for raw in blocks:
            b = frozenset(space.validate(u) for u in raw)
            if not b:
                raise InputError("empty block")
            sets.append(b)
        index: dict[Vec, int] = {}
        sets.sort(key=lambda b: min(space.rank(u) for u in b))
        for i, b in enumerate(sets):
            for u in b:
                if u in index:
                    raise InputError(f"vector {space.render(u)} appears in two blocks")
                index[u] = i
        if len(index) != space.size:
            missing = next(u for u in space.enumerate() if u not in index)
            raise InputError(f"blocks do not cover the space; missing {space.render(missing)}")
        return Partition(space, tuple(sets), index)

    def __post_init__(self) -> None:
        if not self._index:
            # Direct construction path; rebuild the lookup table.
            idx = {u: i for i, b in enumerate(self.blocks) for u in b}
            object.__setattr__(self, "_index", idx)

    def block_of(self, u: Vec) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ShapeError(f"vector {u} not in space {self.space}") from None

    def block_name(self, i: int) -> str:
        """Canonical block identifier: text of the lexicographically smallest member."""
        rep = min(self.blocks[i], key=self.space.rank)
        return self.space.render(rep)

    def __len__(self) -> int:
        return len(self.blocks)


def from_function(space: Space, f: Callable[[Vec], Hashable]) -> Partition:
    """Partition into the nonempty preimage sets of f over the whole space."""
    pre: dict[Hashable, list[Vec]] = {}
    for u in space.enumerate():
        label = f(u)
        if label is None:
            raise InputError(f"function undefined on {space.render(u)}")
        pre.setdefault(label, []).append(u)
    return Partition.from_blocks(space, pre.values())


def finest(space: Space) -> Partition:
    """The partition with every vector in its own singleton block."""
    return Partition.from_blocks(space, ([u] for u in space.enumerate()))


def join(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement: nonempty pairwise block intersections."""
    if p.space != q.space:
        raise ShapeError(f"space mismatch: {p.space} vs {q.space}")
    cells: dict[tuple[int, int], list[Vec]] = {}
    for u in p.space.enumerate():
        cells.setdefault((p.block_of(u), q.block_of(u)), []).append(u)
    return Partition.from_blocks(p.space, cells.values())


def join_many(parts: Sequence[Partition]) -> Partition:
    """Left fold of join over a nonempty sequence."""
    if not parts:
        raise InputError("join_many requires at least one partition")
    acc = parts[0]
    for p in parts[1:]:
        acc = join(acc, p)
    return acc


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of `fine` lies within a single block of `coarse`."""
    if fine.space != coarse.space:
        raise ShapeError(f"space mismatch: {fine.space} vs {coarse.space}")
    for b in fine.blocks:
        it = iter(b)
        target = coarse.block_of(next(it))
        if any(coarse.block_of(u) != target for u in it):
            return False
    return True


def same_block(p: Partition, u: Vec, v: Vec) -> bool:
    return p.block_of(u) == p.block_of(v)
