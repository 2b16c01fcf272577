from __future__ import annotations

import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcpc import solver
from gfcpc.drm import RequirementMatrix
from gfcpc.errors import CapacityError, ShapeError
from gfcpc.solver import (
    SearchBudget,
    _Counter,
    _milp_min_columns,
    _parity_dfs,
    brute_force_ndcode_oracle,
    lower_bound_pairwise,
    lower_bound_triples,
    min_length_dcode,
    verify_dcode,
)


def mat_from_entries(entries):
    m = len(entries)
    msgs = tuple((i,) for i in range(m))
    levels = tuple(
        tuple(1 if i != j and entries[i][j] else None for j in range(m))
        for i in range(m)
    )
    return RequirementMatrix(msgs, tuple(map(tuple, entries)), levels)


def random_matrix(rng: random.Random, m_max=4, e_max=5):
    m = rng.randint(1, m_max)
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            e = rng.randint(0, e_max)
            entries[i][j] = entries[j][i] = e
    return mat_from_entries(entries)


def test_verify_dcode():
    mat = mat_from_entries([[0, 2], [2, 0]])
    ok, bad = verify_dcode([(0, 0), (1, 1)], mat)
    assert ok and bad == []
    ok, bad = verify_dcode([(0, 0), (1, 0)], mat)
    assert not ok and bad == [(0, 1)]
    with pytest.raises(ShapeError):
        verify_dcode([(0, 0)], mat)
    with pytest.raises(ShapeError):
        verify_dcode([(0, 0), (1,)], mat)


def test_lower_bounds():
    mat = mat_from_entries([[0, 3, 2], [3, 0, 3], [2, 3, 0]])
    assert lower_bound_pairwise(mat) == 3
    # triple sum 8: ceil(8/2) = 4 for q=2, ceil(8/3) = 3 for q=3
    assert lower_bound_triples(mat, 2) == 4
    assert lower_bound_triples(mat, 3) == 3


def test_trivial_instances():
    assert min_length_dcode(mat_from_entries([[0]]), 2).n == 0
    res = min_length_dcode(mat_from_entries([[0, 0], [0, 0]]), 2)
    assert res.n == 0 and res.is_exact


def test_known_small_values():
    # Two messages need exactly the demanded distance.
    assert min_length_dcode(mat_from_entries([[0, 4], [4, 0]]), 2).n == 4
    # Binary equilateral triple at distance 2 needs 3, not 2.
    tri = mat_from_entries([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    assert min_length_dcode(tri, 2).n == 3
    assert min_length_dcode(tri, 3).n == 2


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_solver_matches_oracle(seed, q):
    rng = random.Random(seed)
    mat = random_matrix(rng)
    res = min_length_dcode(mat, q)
    assert res.is_exact
    if q**res.n > 2**13:
        return  # outside the oracle's enumeration capacity
    assert brute_force_ndcode_oracle(mat, q, res.n) == res.n
    if res.n > 0:
        assert brute_force_ndcode_oracle(mat, q, res.n - 1) is None


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_witness_satisfies_matrix(seed, q):
    rng = random.Random(seed)
    mat = random_matrix(rng)
    res = min_length_dcode(mat, q)
    ok, bad = verify_dcode(res.witness.parities, mat)
    assert ok, bad
    assert res.witness.length == res.n
    assert res.n >= max(lower_bound_pairwise(mat), lower_bound_triples(mat, q))


def test_budget_exhaustion_brackets():
    # Large enough to bypass the covering shortcut; infeasible at the lower
    # bound, so certifying anything needs search nodes the budget denies.
    m = 18
    entries = [[0 if i == j else 5 for j in range(m)] for i in range(m)]
    mat = mat_from_entries(entries)
    res = min_length_dcode(mat, 2, SearchBudget(node_limit=1))
    assert res.status == "budget"
    assert not res.is_exact
    assert res.lower <= res.upper
    assert res.witness is None


def test_wall_clock_binds_local_search():
    # Same instance with no node limit: only the deadline stops the
    # min-conflicts pass short of its 3 x 30,000 repairs per length.
    m = 18
    entries = [[0 if i == j else 5 for j in range(m)] for i in range(m)]
    t0 = time.monotonic()
    res = min_length_dcode(mat_from_entries(entries), 2, SearchBudget(wall_clock_s=0.2))
    assert time.monotonic() - t0 < 5
    assert res.status == "budget" and res.lower <= res.upper


def test_wall_clock_reaches_highs():
    import scipy.optimize

    mat = mat_from_entries([[0, 3, 2, 1], [3, 0, 2, 2], [2, 2, 0, 3], [1, 2, 3, 0]])
    with mock.patch.object(scipy.optimize, "milp", wraps=scipy.optimize.milp) as spy:
        assert min_length_dcode(mat, 2, SearchBudget(wall_clock_s=30)).n == 4
        limit = spy.call_args.kwargs["options"]["time_limit"]
        assert 0 < limit <= 30
        min_length_dcode(mat, 2)
        assert "time_limit" not in spy.call_args.kwargs["options"]


def test_node_limit_reaches_highs():
    import scipy.optimize

    # milp pops node_limit off the options it is given, so record a copy
    seen = []
    real = scipy.optimize.milp

    def record(*args, **kwargs):
        seen.append(dict(kwargs["options"]))
        return real(*args, **kwargs)

    mat = mat_from_entries([[0, 3, 2, 1], [3, 0, 2, 2], [2, 2, 0, 3], [1, 2, 3, 0]])
    with mock.patch.object(scipy.optimize, "milp", record):
        min_length_dcode(mat, 2, SearchBudget(node_limit=7))
        min_length_dcode(mat, 2, SearchBudget(node_limit=10**12))
    assert [o["node_limit"] for o in seen] == [7, 2**31 - 1]


def test_max_length_cap():
    m = 18
    entries = [[0 if i == j else 5 for j in range(m)] for i in range(m)]
    mat = mat_from_entries(entries)
    res = min_length_dcode(mat, 2, SearchBudget(max_length=7))
    assert res.status == "budget"
    assert res.lower >= 8
    # small enough for the covering program, whose optimum 4 exceeds the cap
    mat = mat_from_entries([[0, 3, 2, 1], [3, 0, 2, 2], [2, 2, 0, 3], [1, 2, 3, 0]])
    res = min_length_dcode(mat, 2, SearchBudget(node_limit=1, max_length=1))
    assert res.status == "budget"
    assert 2 <= res.lower <= 4 <= res.upper


def _dfs_ladder(mat, q):
    """Walk lengths upward from the largest demand with the parity DFS alone."""
    entries = [list(row) for row in mat.entries]
    r = lower_bound_pairwise(mat)
    counter = _Counter(10**8, None)
    while (found := _parity_dfs(entries, q, r, counter)) is None:
        r += 1
    return r, found


def test_covering_path_agrees_with_dfs():
    # The covering program and the parity-DFS length ladder are independent
    # mechanisms; on the same instance they must agree on the minimum.
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(2, 6)
        entries = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                e = rng.randint(0, 4)
                entries[i][j] = entries[j][i] = e
        mat = mat_from_entries(entries)
        best = {}
        for q in (2, 3):
            n_milp, milp_witness = _milp_min_columns(entries, q)
            n_dfs, dfs_witness = _dfs_ladder(mat, q)
            assert n_milp == n_dfs, (entries, q)
            assert verify_dcode(milp_witness, mat)[0]
            assert verify_dcode(dfs_witness, mat)[0]
            best[q] = n_milp
        assert best[3] <= best[2]  # larger alphabet never needs more length


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3]),
    st.one_of(st.none(), st.integers(0, 8)),
    st.integers(1, 3000),
    st.booleans(),
)
def test_budget_result_brackets_minimum(seed, q, max_length, node_limit, skip_covering):
    rng = random.Random(seed)
    mat = random_matrix(rng, m_max=5)
    n = min_length_dcode(mat, q).n
    budget = SearchBudget(max_length=max_length, node_limit=node_limit)
    if skip_covering:
        # Force the length walk, where the budget binds.
        with mock.patch.object(solver, "_milp_min_columns", lambda *_: None):
            res = min_length_dcode(mat, q, budget)
    else:
        res = min_length_dcode(mat, q, budget)
    assert res.lower <= n <= res.upper
    if res.is_exact:
        assert res.n == n and verify_dcode(res.witness.parities, mat)[0]
        assert max_length is None or res.n <= max_length


def test_oracle_capacity_guards():
    big = mat_from_entries([[0] * 5 for _ in range(5)])
    with pytest.raises(CapacityError):
        brute_force_ndcode_oracle(big, 2, 1)
    small = mat_from_entries([[0, 1], [1, 0]])
    with pytest.raises(CapacityError):
        brute_force_ndcode_oracle(small, 2, 20)
