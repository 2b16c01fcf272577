"""Distance requirement matrices for single partitions and multi-partition problems.

A problem pairs H partitions with ascending distance demands d_1 <= ... <= d_H.
The requirement matrix records, per message pair, how much parity distance is
still needed once the message Hamming distance is accounted for; the binding
demand comes from the largest-index partition separating the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, ShapeError
from .partition import Partition
from .space import Space, Vec, distance_matrix, hamming_distance


@dataclass(frozen=True)
class Problem:
    """H partitions with distances, canonically sorted ascending by distance."""

    space: Space
    partitions: tuple[Partition, ...]
    distances: tuple[int, ...]
    # original_order[j] = caller's index of the j-th canonical (partition, distance) pair
    original_order: tuple[int, ...]

    @property
    def H(self) -> int:
        return len(self.partitions)

    def t(self, h: int) -> int:
        """Correctable error weight for level h (1-based): floor((d_h - 1) / 2)."""
        return (self.distances[h - 1] - 1) // 2


def canonicalize_problem(
    partitions: Sequence[Partition], distances: Sequence[int]
) -> Problem:
    """Stably sort (partition, distance) pairs by distance, recording the permutation."""
    if len(partitions) != len(distances):
        raise InputError(
            f"{len(partitions)} partitions but {len(distances)} distances"
        )
    if not partitions:
        raise InputError("a problem needs at least one partition")
    space = partitions[0].space
    for p in partitions[1:]:
        if p.space != space:
            raise ShapeError(f"space mismatch: {p.space} vs {space}")
    for d in distances:
        if d < 1:
            raise InputError(f"distances must be positive, got {d}")
    order = sorted(range(len(distances)), key=lambda i: distances[i])
    return Problem(
        space=space,
        partitions=tuple(partitions[i] for i in order),
        distances=tuple(distances[i] for i in order),
        original_order=tuple(order),
    )


@dataclass(frozen=True)
class RequirementMatrix:
    """Symmetric nonnegative parity-distance demands over an ordered message list.

    source_level[i][j] is the 1-based index of the partition that set the
    entry, or None on the diagonal and for pairs no partition separates.
    """

    messages: tuple[Vec, ...]
    entries: tuple[tuple[int, ...], ...]
    source_level: tuple[tuple[int | None, ...], ...]

    @property
    def m(self) -> int:
        return len(self.messages)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def max_entry(self) -> int:
        return max((e for row in self.entries for e in row), default=0)

    def is_zero(self) -> bool:
        return self.max_entry() == 0


def _check_messages(msgs: Sequence[Vec], space: Space) -> tuple[Vec, ...]:
    out = tuple(space.validate(u) for u in msgs)
    if len(set(out)) != len(out):
        raise InputError("duplicate messages in DRM request")
    return out


def single_drm(p: Partition, d: int, msgs: Sequence[Vec]) -> RequirementMatrix:
    """Demands max(d - d(u_i, u_j), 0) between messages in different blocks of p."""
    if d < 1:
        raise InputError(f"distance must be positive, got {d}")
    messages = _check_messages(msgs, p.space)
    m = len(messages)
    entries = [[0] * m for _ in range(m)]
    levels: list[list[int | None]] = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if p.block_of(messages[i]) != p.block_of(messages[j]):
                need = max(d - hamming_distance(messages[i], messages[j]), 0)
                entries[i][j] = entries[j][i] = need
                levels[i][j] = levels[j][i] = 1
    return RequirementMatrix(
        messages, tuple(map(tuple, entries)), tuple(map(tuple, levels))
    )


def gfcpc_drm(prob: Problem, msgs: Sequence[Vec]) -> RequirementMatrix:
    """Definition of the multi-partition requirement matrix.

    The entry for a separated pair uses the largest h whose partition splits
    the pair; with ascending distances that level carries the binding demand.
    """
    messages = _check_messages(msgs, prob.space)
    m = len(messages)
    # source[i, j] = largest h whose partition splits the pair, 0 if none
    source = np.zeros((m, m), dtype=np.int16)
    for h, p in enumerate(prob.partitions, start=1):
        ids = np.array([p.block_of(u) for u in messages])
        source[ids[:, None] != ids[None, :]] = h
    demand = np.array((0,) + prob.distances, dtype=np.int16)[source]
    entries = np.maximum(demand - distance_matrix(messages), 0)
    return RequirementMatrix(
        messages,
        tuple(map(tuple, entries.tolist())),
        tuple(tuple(h or None for h in row) for row in source.tolist()),
    )


def entrywise_max(ms: Sequence[RequirementMatrix]) -> RequirementMatrix:
    """Entry-by-entry maximum over matrices sharing one message order."""
    if not ms:
        raise InputError("entrywise_max needs at least one matrix")
    first = ms[0]
    for other in ms[1:]:
        if other.messages != first.messages:
            raise ShapeError("requirement matrices use different message orders")
    m = first.m
    entries = [[0] * m for _ in range(m)]
    levels: list[list[int | None]] = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            best = max(mat.entries[i][j] for mat in ms)
            entries[i][j] = best
            # largest contributing matrix index wins on ties
            contributing = [
                idx
                for idx, mat in enumerate(ms, start=1)
                if mat.source_level[i][j] is not None and mat.entries[i][j] == best
            ]
            levels[i][j] = max(contributing) if contributing else None
    return RequirementMatrix(
        first.messages, tuple(map(tuple, entries)), tuple(map(tuple, levels))
    )
