"""Shared helpers for the test suite: random problems and partitions,
pure-Python pair-loop references for the numpy distance kernels, and the
independent oracles for the requirement matrix and the exact solver."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

import numpy as np

from gfcpc.codec import SystematicEncoding, Violation
from gfcpc.drm import Problem, RequirementMatrix, canonicalize_problem
from gfcpc.errors import CapacityError, InputError, ShapeError
from gfcpc.partition import Partition
from gfcpc.space import Space, Vec, distance_matrix, hamming_distance


def random_partition(rng: random.Random, space: Space, max_blocks: int = 4) -> Partition:
    """A uniform-ish random partition: each vector draws a label."""
    n_labels = rng.randint(1, max_blocks)
    labels = {u: rng.randrange(n_labels) for u in space.enumerate()}
    groups: dict[int, list] = {}
    for u, g in labels.items():
        groups.setdefault(g, []).append(u)
    return Partition.from_blocks(space, groups.values())


def random_problem(
    rng: random.Random,
    q: int = 2,
    k_max: int = 3,
    h_max: int = 3,
    d_max: int = 5,
) -> Problem:
    space = Space(q, rng.randint(1, k_max))
    H = rng.randint(1, h_max)
    partitions = [random_partition(rng, space) for _ in range(H)]
    distances = sorted(rng.randint(1, d_max) for _ in range(H))
    return canonicalize_problem(partitions, distances)


def reference_verify_gfcpc(enc: SystematicEncoding, prob: Problem) -> tuple[Violation, ...]:
    """Every (pair, level) violation by a direct double loop, in (a, b, h) order."""
    vectors = prob.space.vectors()
    block_ids = [[p.block_of(u) for u in vectors] for p in prob.partitions]
    violations = []
    for a in range(len(vectors)):
        u = vectors[a]
        pu = enc.parity[u]
        for b in range(a + 1, len(vectors)):
            v = vectors[b]
            d_tot = hamming_distance(u, v) + hamming_distance(pu, enc.parity[v])
            for h in range(prob.H):
                if block_ids[h][a] != block_ids[h][b] and d_tot < prob.distances[h]:
                    violations.append(Violation(h + 1, u, v, d_tot, prob.distances[h]))
    return tuple(violations)


def reference_block_residual_matrix(
    q_h: Partition, d_h: int, cumulative: dict[Vec, Vec]
) -> RequirementMatrix:
    """Per block pair, the largest shortfall over member pairs, by direct loops."""
    space = q_h.space
    n_blocks = len(q_h.blocks)
    reps = tuple(min(b, key=space.rank) for b in q_h.blocks)
    members = [sorted(b, key=space.rank) for b in q_h.blocks]
    entries = [[0] * n_blocks for _ in range(n_blocks)]
    levels: list[list[int | None]] = [[None] * n_blocks for _ in range(n_blocks)]
    for a in range(n_blocks):
        for b in range(a + 1, n_blocks):
            need = 0
            for u in members[a]:
                for v in members[b]:
                    have = hamming_distance(u, v) + hamming_distance(cumulative[u], cumulative[v])
                    need = max(need, d_h - have)
            entries[a][b] = entries[b][a] = need
            levels[a][b] = levels[b][a] = 1
    return RequirementMatrix(reps, tuple(map(tuple, entries)), tuple(map(tuple, levels)))


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


def brute_force_ndcode_oracle(
    D: RequirementMatrix, q: int, r_max: int
) -> int | None:
    """Independent exhaustive oracle for tests: full enumeration, first parity all-zero.

    Returns the smallest feasible length <= r_max, or None. Only intended for
    tiny instances (M <= 4); larger requests are refused.
    """
    m = D.m
    if m > 4:
        raise CapacityError(f"oracle supports M <= 4, got M={m}")
    if q**r_max > 2**13:
        raise CapacityError(f"oracle enumeration q^r = {q**r_max} too large")
    if m <= 1:
        return 0
    for r in range(r_max + 1):
        dist = distance_matrix(list(itertools.product(range(q), repeat=r)))
        d0 = dist[0]
        if m == 2:
            if (d0 >= D.entries[0][1]).any():
                return r
            continue
        cand2 = np.flatnonzero(d0 >= D.entries[0][1])
        found = False
        for i2 in cand2:
            mask3 = (d0 >= D.entries[0][2]) & (dist[i2] >= D.entries[1][2])
            if m == 3:
                if mask3.any():
                    found = True
                    break
                continue
            for i3 in np.flatnonzero(mask3):
                mask4 = (
                    (d0 >= D.entries[0][3])
                    & (dist[i2] >= D.entries[1][3])
                    & (dist[i3] >= D.entries[2][3])
                )
                if mask4.any():
                    found = True
                    break
            if found:
                break
        if found:
            return r
    return None
