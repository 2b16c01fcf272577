"""Shared helpers for the test suite: random problems and partitions, and
pure-Python pair-loop references for the numpy distance kernels."""

from __future__ import annotations

import random

from gfcpc.codec import SystematicEncoding, Violation
from gfcpc.drm import Problem, RequirementMatrix, canonicalize_problem
from gfcpc.partition import Partition
from gfcpc.space import Space, Vec, hamming_distance


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
