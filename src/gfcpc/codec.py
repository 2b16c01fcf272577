"""Systematic encodings: verification, the staged construction, grouped
concatenation, and bounded-distance block decoding.

The staged construction first protects the join of all partitions at the
smallest distance, then walks the descending chain of suffix joins, appending
block-constant parity until each level's distance target is met. Appending
parity never shrinks a pairwise codeword distance, so earlier guarantees
survive later steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drm import Problem, RequirementMatrix
from .errors import InputError, ShapeError
from .partition import Partition, join_many
from .solver import SearchBudget, SolveResult, min_length_dcode
from .space import Space, Vec, distance_matrix


@dataclass(frozen=True)
class SystematicEncoding:
    """A total message -> parity map of fixed parity length r."""

    space: Space
    r: int
    parity: dict[Vec, Vec]

    def __post_init__(self) -> None:
        if len(self.parity) != self.space.size:
            raise InputError(
                f"parity map covers {len(self.parity)} of {self.space.size} messages"
            )
        for u, p in self.parity.items():
            self.space.validate(u)
            if len(p) != self.r:
                raise InputError(
                    f"parity for {self.space.render(u)} has length {len(p)}, expected {self.r}"
                )
            if any(not 0 <= s < self.space.q for s in p):
                raise InputError(f"parity symbol out of range for {self.space.render(u)}")

    def codeword(self, u: Vec) -> Vec:
        return tuple(u) + self.parity[tuple(u)]

    @property
    def n(self) -> int:
        return self.space.k + self.r


@dataclass(frozen=True)
class ConstructionStep:
    h: int
    join_partition: Partition
    r_h: int
    # parity per block of the step's join partition, indexed by block id
    block_parity: tuple[Vec, ...]


@dataclass(frozen=True)
class ConstructionTrace:
    steps: tuple[ConstructionStep, ...]

    @property
    def total_r(self) -> int:
        return sum(s.r_h for s in self.steps)

    @property
    def per_step_r(self) -> tuple[int, ...]:
        return tuple(s.r_h for s in self.steps)


@dataclass(frozen=True)
class Violation:
    h: int
    u: Vec
    v: Vec
    achieved: int
    required: int


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]


class BudgetExceeded(Exception):
    """A construction step ran out of solver budget; carries the partial trace."""

    def __init__(self, result: SolveResult, trace: ConstructionTrace):
        super().__init__("solver budget exhausted during construction")
        self.result = result
        self.trace = trace


def verify_gfcpc(enc: SystematicEncoding, prob: Problem) -> VerificationReport:
    """Exhaustively check every cross-block pair against every level's distance."""
    if enc.space != prob.space:
        raise ShapeError(f"space mismatch: {enc.space} vs {prob.space}")
    vectors = prob.space.vectors()
    d_tot = distance_matrix([enc.codeword(u) for u in vectors])
    upper = np.triu(np.ones(d_tot.shape, dtype=bool), 1)
    short = np.zeros(d_tot.shape + (prob.H,), dtype=bool)
    for h, (p, d) in enumerate(zip(prob.partitions, prob.distances)):
        ids = np.array([p.block_of(u) for u in vectors])
        short[:, :, h] = upper & (ids[:, None] != ids[None, :]) & (d_tot < d)
    # argwhere walks the pairs a < b in (a, b, h) lexicographic order
    violations = [
        Violation(h + 1, vectors[a], vectors[b], int(d_tot[a, b]), prob.distances[h])
        for a, b, h in np.argwhere(short).tolist()
    ]
    return VerificationReport(not violations, tuple(violations))


def _block_residual_matrix(
    q_h: Partition,
    d_h: int,
    cumulative: dict[Vec, Vec],
) -> RequirementMatrix:
    """Demands between blocks of q_h after crediting message and accrued parity distance."""
    space = q_h.space
    members = [sorted(b, key=space.rank) for b in q_h.blocks]
    starts = np.cumsum([0] + [len(block) for block in members[:-1]])
    have = distance_matrix([u + cumulative[u] for block in members for u in block])
    # least codeword distance over each pair of blocks: reduce rows, then columns
    least = np.minimum.reduceat(np.minimum.reduceat(have, starts, axis=0), starts, axis=1)
    need = np.maximum(d_h - least, 0)
    np.fill_diagonal(need, 0)
    n = len(members)
    levels = tuple(tuple(None if a == b else 1 for b in range(n)) for a in range(n))
    reps = tuple(block[0] for block in members)
    return RequirementMatrix(reps, tuple(map(tuple, need.tolist())), levels)


def multi_step_construct(
    prob: Problem, budget: SearchBudget | None = None
) -> tuple[SystematicEncoding, ConstructionTrace]:
    """Build an encoding by upgrading protection level by level.

    Step 1 covers the join of all partitions at the smallest distance; step h
    appends parity, constant on blocks of the suffix join P_h v ... v P_H,
    until cross-block pairs reach cumulative distance d_h.
    """
    space = prob.space
    vectors = space.vectors()
    cumulative: dict[Vec, Vec] = {u: () for u in vectors}
    steps: list[ConstructionStep] = []
    for h in range(1, prob.H + 1):
        q_h = join_many(prob.partitions[h - 1 :])
        d_h = prob.distances[h - 1]
        mat = _block_residual_matrix(q_h, d_h, cumulative)
        if mat.is_zero():
            steps.append(ConstructionStep(h, q_h, 0, tuple(() for _ in q_h.blocks)))
            continue
        res = min_length_dcode(mat, space.q, budget)
        if not res.is_exact:
            raise BudgetExceeded(res, ConstructionTrace(tuple(steps)))
        assert res.witness is not None
        block_parity = res.witness.parities
        for u in vectors:
            cumulative[u] = cumulative[u] + block_parity[q_h.block_of(u)]
        steps.append(ConstructionStep(h, q_h, res.n or 0, block_parity))
    total_r = len(next(iter(cumulative.values()))) if vectors else 0
    enc = SystematicEncoding(space, total_r, dict(cumulative))
    return enc, ConstructionTrace(tuple(steps))


def group_code(
    prob: Problem, levels: Sequence[int], budget: SearchBudget | None = None
) -> tuple[Partition, SolveResult]:
    """One block-constant code protecting a group of levels (1-based indices).

    The code lives on the join of the group's partitions and meets the
    group's largest distance; returns that join and the solver result.
    """
    joined = join_many([prob.partitions[i - 1] for i in levels])
    d_a = max(prob.distances[i - 1] for i in levels)
    empty: dict[Vec, Vec] = {u: () for u in prob.space.enumerate()}
    mat = _block_residual_matrix(joined, d_a, empty)
    return joined, min_length_dcode(mat, prob.space.q, budget)


def grouped_construct(
    prob: Problem,
    grouping: Sequence[Sequence[int]],
    budget: SearchBudget | None = None,
) -> tuple[SystematicEncoding, tuple[int, ...]]:
    """Concatenate one join-partition code per group of protection levels.

    `grouping` is a set partition of {1..H} (1-based level indices). Each
    group A gets a code for the join of its partitions at max distance in A.
    Returns the encoding and the per-group redundancies (in canonical group
    order: sorted by smallest member).
    """
    groups = [tuple(sorted(set(g))) for g in grouping]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(1, prob.H + 1)):
        raise InputError(f"grouping {grouping!r} is not a partition of 1..{prob.H}")
    groups.sort(key=lambda g: g[0])
    space = prob.space
    vectors = space.vectors()
    cumulative: dict[Vec, Vec] = {u: () for u in vectors}
    per_group = []
    for g in groups:
        joined, res = group_code(prob, g, budget)
        if not res.is_exact:
            raise BudgetExceeded(res, ConstructionTrace(()))
        assert res.witness is not None
        per_group.append(res.n or 0)
        for u in vectors:
            cumulative[u] = cumulative[u] + res.witness.parities[joined.block_of(u)]
    total_r = sum(per_group)
    return SystematicEncoding(space, total_r, dict(cumulative)), tuple(per_group)


def decode_block(
    enc: SystematicEncoding,
    prob: Problem,
    h: int,
    received: Vec,
    t: int | None = None,
) -> int | None:
    """Recover the level-h block of the transmitted message, or None on failure.

    Collects all codewords within t errors of the received word (t defaults
    to the level's guaranteed correction radius). Success requires a
    nonempty candidate set confined to a single block.
    """
    if not 1 <= h <= prob.H:
        raise InputError(f"level {h} out of range 1..{prob.H}")
    if len(received) != enc.n:
        raise ShapeError(f"received word has length {len(received)}, expected {enc.n}")
    radius = prob.t(h) if t is None else t
    part = prob.partitions[h - 1]
    vectors = enc.space.vectors()
    dist = distance_matrix([received], [enc.codeword(u) for u in vectors])[0]
    blocks = {part.block_of(vectors[i]) for i in np.flatnonzero(dist <= radius)}
    return blocks.pop() if len(blocks) == 1 else None
