from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfcpc.drm import (
    canonicalize_problem,
    entrywise_max,
    gfcpc_drm,
    single_drm,
)
from gfcpc.errors import InputError, ShapeError
from gfcpc.partition import Partition, same_block
from gfcpc.space import Space, hamming_distance

from conftest import random_problem


def _parts(space, *blocks_text):
    return Partition.from_blocks(
        space, [[space.parse(t) for t in b] for b in blocks_text]
    )


def test_canonicalize_sorts_by_distance():
    space = Space(2, 2)
    a = _parts(space, ["00", "01"], ["10", "11"])
    b = _parts(space, ["00", "10"], ["01", "11"])
    prob = canonicalize_problem([a, b], [5, 3])
    assert prob.distances == (3, 5)
    assert prob.partitions == (b, a)
    assert prob.original_order == (1, 0)
    assert prob.t(1) == 1 and prob.t(2) == 2


def test_canonicalize_validation():
    space = Space(2, 2)
    p = _parts(space, ["00", "01", "10", "11"])
    with pytest.raises(InputError):
        canonicalize_problem([p], [3, 5])
    with pytest.raises(InputError):
        canonicalize_problem([], [])
    with pytest.raises(InputError):
        canonicalize_problem([p], [0])


def test_single_drm_hand_case():
    space = Space(2, 2)
    p = _parts(space, ["00", "01"], ["10", "11"])
    mat = single_drm(p, 3, space.vectors())
    i, j = 0, 2  # 00 vs 10, distance 1, separated
    assert mat.entry(i, j) == 2
    assert mat.source_level[i][j] == 1
    assert mat.entry(0, 1) == 0  # same block
    assert mat.source_level[0][1] is None


def test_single_drm_clamps_at_zero():
    space = Space(2, 3)
    p = _parts(space, ["000", "001", "010", "011"], ["100", "101", "110", "111"])
    mat = single_drm(p, 1, [(0, 0, 0), (1, 1, 1)])
    assert mat.entry(0, 1) == 0  # d=1 already met by message distance 3
    assert mat.source_level[0][1] == 1


def test_duplicate_messages_rejected():
    space = Space(2, 2)
    p = _parts(space, ["00", "01"], ["10", "11"])
    with pytest.raises(InputError):
        single_drm(p, 3, [(0, 0), (0, 0)])


@given(st.integers(0, 10**6))
def test_gfcpc_drm_is_entrywise_max_of_singles(seed):
    rng = random.Random(seed)
    prob = random_problem(rng, q=rng.choice([2, 3]), k_max=2, h_max=3, d_max=5)
    msgs = prob.space.vectors()
    combined = gfcpc_drm(prob, msgs)
    singles = [
        single_drm(p, d, msgs)
        for p, d in zip(prob.partitions, prob.distances)
    ]
    merged = entrywise_max(singles)
    assert combined.entries == merged.entries
    assert combined.source_level == merged.source_level


@given(st.integers(0, 10**6))
def test_gfcpc_drm_level_is_largest_separating(seed):
    rng = random.Random(seed)
    prob = random_problem(rng, k_max=2, h_max=3)
    msgs = prob.space.vectors()
    mat = gfcpc_drm(prob, msgs)
    for i in range(mat.m):
        for j in range(i + 1, mat.m):
            separating = [
                h
                for h in range(1, prob.H + 1)
                if not same_block(prob.partitions[h - 1], msgs[i], msgs[j])
            ]
            if not separating:
                assert mat.entry(i, j) == 0
                assert mat.source_level[i][j] is None
            else:
                h_prime = max(separating)
                assert mat.source_level[i][j] == h_prime
                want = max(
                    prob.distances[h_prime - 1] - hamming_distance(msgs[i], msgs[j]),
                    0,
                )
                assert mat.entry(i, j) == want


def test_drm_symmetric_zero_diagonal():
    rng = random.Random(7)
    prob = random_problem(rng, q=3, k_max=2)
    mat = gfcpc_drm(prob, prob.space.vectors())
    for i in range(mat.m):
        assert mat.entry(i, i) == 0
        for j in range(mat.m):
            assert mat.entry(i, j) == mat.entry(j, i)


def test_entrywise_max_message_order_mismatch():
    space = Space(2, 2)
    p = _parts(space, ["00", "01"], ["10", "11"])
    a = single_drm(p, 3, [(0, 0), (1, 0)])
    b = single_drm(p, 3, [(1, 0), (0, 0)])
    with pytest.raises(ShapeError):
        entrywise_max([a, b])
    with pytest.raises(InputError):
        entrywise_max([])
