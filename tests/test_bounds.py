from __future__ import annotations

import random
from unittest import mock

import pytest

from gfcpc import solver
from gfcpc.bounds import (
    BoundReport,
    IndexGrouping,
    binary_structural_bound,
    binary_triple_bound,
    enumerate_index_groupings,
    lower_bound_drm_submatrix,
    lower_bound_joins,
    lower_bound_trivial,
    optimal_redundancy_exact,
    scan_binary_structural_witness,
    scan_binary_triple_witness,
    upper_bound_grouping,
    upper_bound_multistep,
)
from gfcpc.drm import canonicalize_problem
from gfcpc.errors import CapacityError, DomainError, InputError
from gfcpc.partition import Partition, finest
from gfcpc.solver import SearchBudget
from gfcpc.space import Space

from conftest import random_problem


def _parts(space, *blocks_text):
    return Partition.from_blocks(
        space, [[space.parse(t) for t in b] for b in blocks_text]
    )


def test_enumerate_groupings_bell_numbers():
    for h, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
        assert len(enumerate_index_groupings(h)) == bell
    with pytest.raises(CapacityError):
        enumerate_index_groupings(9)
    with pytest.raises(InputError):
        enumerate_index_groupings(0)


def test_grouping_str():
    g = IndexGrouping(((1, 2), (3,)))
    assert str(g) == "{1,2}{3}"


def test_bound_report_validation():
    with pytest.raises(InputError):
        BoundReport(kind="no-such-kind", value=0, status="lower")
    with pytest.raises(InputError):
        BoundReport(kind="exact", value=-1, status="exact")


def _two_level(q=2, k=3, d=(3, 5)):
    space = Space(q, k)
    if k == 3 and q == 2:
        p1 = _parts(space, ["000", "001", "110", "111"], ["010", "011", "100", "101"])
        p2 = _parts(space, ["000", "011"], ["001", "010"], ["100", "111"], ["101", "110"])
        return canonicalize_problem([p1, p2], list(d))
    raise AssertionError


def test_trivial_bound():
    prob = _two_level()
    rep = lower_bound_trivial(prob)
    assert rep.value == prob.distances[-1] - 1
    u, v = rep.certificate["u"], rep.certificate["v"]
    p = prob.partitions[-1]
    assert p.block_of(u) != p.block_of(v)


def test_trivial_bound_single_block():
    space = Space(2, 2)
    whole = _parts(space, ["00", "01", "10", "11"])
    prob = canonicalize_problem([whole], [4])
    rep = lower_bound_trivial(prob)
    assert rep.value == 0


def test_triple_witness_and_bound():
    prob = _two_level()
    witness = scan_binary_triple_witness(prob.partitions[1])
    assert witness is not None
    u, v, w = witness
    p2 = prob.partitions[1]
    assert len({p2.block_of(u), p2.block_of(v), p2.block_of(w)}) == 3
    rep = binary_triple_bound(prob)
    assert rep.value == 6  # ceil(3*5/2 - 2)


def test_triple_bound_domain_checks():
    space = Space(3, 2)
    p = _parts(space, ["00", "01", "02"], ["10", "11", "12"], ["20", "21", "22"])
    prob = canonicalize_problem([p, p], [3, 5])
    with pytest.raises(DomainError):
        binary_triple_bound(prob)
    space2 = Space(2, 2)
    p2 = _parts(space2, ["00", "01"], ["10", "11"])
    with pytest.raises(InputError):
        binary_triple_bound(canonicalize_problem([p2], [3]))


def test_triple_bound_inapplicable():
    space = Space(2, 2)
    p1 = _parts(space, ["00", "10"], ["01", "11"])
    p2 = _parts(space, ["00", "01"], ["10", "11"])  # only two blocks
    prob = canonicalize_problem([p1, p2], [3, 5])
    rep = binary_triple_bound(prob)
    assert rep.status == "inapplicable"
    assert rep.value == 0


def test_structural_condition_one_case():
    # Adjacent in-block pair split by the first partition, with an escape
    # neighbor; the distance-2 pairs have no common neighbor outside.
    space = Space(2, 3)
    p1 = _parts(space, ["000", "001", "100", "101"], ["010", "011", "110", "111"])
    p2 = _parts(space, ["000", "001", "010", "011"], ["100", "101", "110", "111"])
    witness = scan_binary_structural_witness(p1, p2)
    assert witness is not None
    condition, block, v, w, u = witness
    assert condition == 1
    assert v in block and w in block and u not in block
    prob = canonicalize_problem([p1, p2], [3, 5])
    rep = binary_structural_bound(prob)
    assert rep.value == 5  # ceil(5 + 3/2 - 2)


def test_structural_condition_two_case():
    space = Space(2, 2)
    p1 = _parts(space, ["00", "01"], ["10", "11"])
    p2 = _parts(space, ["00", "11"], ["01", "10"])
    witness = scan_binary_structural_witness(p1, p2)
    assert witness is not None
    condition, block, v, w, u = witness
    assert condition == 2
    assert u not in block
    rep = binary_structural_bound(canonicalize_problem([p1, p2], [3, 5]))
    assert rep.certificate["condition"] == 2


def test_structural_both_conditions_prefers_one():
    space = Space(2, 4)
    p1 = _parts(
        space,
        ["0000", "0001", "0010", "0011"],
        ["0100", "0101", "0110", "0111"],
        ["1000", "1001", "1010", "1011"],
        ["1100", "1101", "1110", "1111"],
    )
    p2 = _parts(
        space,
        ["0000", "0001", "0100", "0110"],
        ["0010", "0011", "0101", "0111"],
        ["1000", "1001", "1100", "1110"],
        ["1010", "1011", "1101", "1111"],
    )
    witness = scan_binary_structural_witness(p1, p2)
    assert witness is not None
    assert witness[0] == 1  # condition 1 scanned first


def test_structural_domain_checks():
    space = Space(3, 2)
    p = _parts(space, ["00", "01", "02"], ["10", "11", "12", "20", "21", "22"])
    with pytest.raises(DomainError):
        binary_structural_bound(canonicalize_problem([p, p], [3, 5]))


def test_grouping_and_multistep_upper_bounds():
    prob = _two_level()
    grouped = upper_bound_grouping(prob)
    multi = upper_bound_multistep(prob)
    assert grouped.status == "upper" and multi.status == "upper"
    table = grouped.certificate["table"]
    assert len(table) == 2  # Bell(2)
    assert grouped.value == min(row["total"] for row in table)


def test_grouping_upper_bound_under_length_cap():
    # The cap stops the solver below the true redundancy 3 (the [7,4] Hamming
    # code); the reported upper bound must still be at least that.
    prob = canonicalize_problem([finest(Space(2, 4))], [3])
    rep = upper_bound_grouping(prob, SearchBudget(max_length=1))
    assert rep.value >= 3
    assert not rep.certificate["table"][0]["exact"]


def test_bound_ordering_on_random_problems():
    rng = random.Random(42)
    checked = 0
    for _ in range(12):
        prob = random_problem(rng, q=2, k_max=2, h_max=2, d_max=4)
        exact = optimal_redundancy_exact(prob)
        if exact.status != "exact":
            continue
        checked += 1
        lower = lower_bound_joins(prob)
        sub = lower_bound_drm_submatrix(prob, prob.space.vectors()[:3])
        triv = lower_bound_trivial(prob)
        upper_g = upper_bound_grouping(prob)
        upper_m = upper_bound_multistep(prob)
        assert lower.value <= exact.value <= upper_g.value
        assert sub.value <= exact.value <= upper_m.value
        assert triv.value <= exact.value
    assert checked >= 8


def test_exact_certificate_verifies():
    from gfcpc.codec import verify_gfcpc

    prob = _two_level(d=(3, 3))
    rep = optimal_redundancy_exact(prob)
    assert rep.status == "exact"
    enc = rep.certificate["encoding"]
    assert enc.r == rep.value
    assert verify_gfcpc(enc, prob).valid


def _hard_search_problem():
    """The hard instance of the benchmark's search pool."""
    labels = [
        [0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0],
        [0, 1, 2, 2, 0, 2, 1, 0, 0, 0, 1, 0, 0, 2, 0, 1],
    ]
    space = Space(2, 4)
    parts = []
    for row in labels:
        blocks = {}
        for u, b in zip(space.vectors(), row):
            blocks.setdefault(b, []).append(u)
        parts.append(Partition.from_blocks(space, blocks.values()))
    return canonicalize_problem(parts, [3, 5, 5])


def test_exact_walk_proves_the_hard_search_instance():
    # Local search cannot reach length 6, the lower bound, so the first
    # round's capped DFS must prove 6 infeasible before the walk settles at
    # 7. The node count pins that proof to the first round.
    rep = optimal_redundancy_exact(_hard_search_problem(), SearchBudget(node_limit=100_000))
    assert rep.status == "exact"
    assert rep.value == 7
    assert rep.certificate["nodes"] == 28352


@pytest.mark.parametrize("round_nodes", [0, 1000])
def test_paused_dfs_resumes_without_recharging(round_nodes):
    # A first-round cap of 0 or 1,000 nodes pauses the length-6 DFS; after
    # the full local search (cut to 50 repairs a seed) it must resume where
    # it stopped, so the proof still takes 28,352 nodes in all and fits a
    # node limit of exactly that. A DFS restarted from the root charges the
    # paused nodes twice and runs out of budget.
    with (
        mock.patch.object(solver, "_FIRST_ROUND_NODES", round_nodes),
        mock.patch.object(solver, "_LOCAL_SEARCH_ITERS", 50),
    ):
        rep = optimal_redundancy_exact(_hard_search_problem(), SearchBudget(node_limit=28352))
    assert rep.status == "exact"
    assert rep.value == 7
    assert rep.certificate["nodes"] == 28352
