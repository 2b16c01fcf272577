"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

All integer comparisons are exact. The reference values live in the bundled
data files guarded by test_fixtures.py."""

from __future__ import annotations

import itertools
import random
import time

import pytest

from gfcpc.bounds import (
    binary_triple_bound,
    lower_bound_drm_submatrix,
    lower_bound_joins,
    lower_bound_trivial,
    optimal_redundancy_exact,
    scan_binary_triple_witness,
    upper_bound_grouping,
    upper_bound_multistep,
)
from gfcpc.codec import decode_block, grouped_construct, multi_step_construct, verify_gfcpc
from gfcpc.drm import RequirementMatrix, canonicalize_problem, gfcpc_drm
from gfcpc.examples import encoding_from_rows, load_example
from gfcpc.partition import join_many, same_block
from gfcpc.solver import min_length_dcode
from gfcpc.space import hamming_distance, hamming_weight

from conftest import brute_force_ndcode_oracle, random_problem


@pytest.fixture
def announce(capsys, request):
    marker = {"printed": False}

    def _print(line):
        with capsys.disabled():
            print(line)
        marker["printed"] = True

    yield _print
    if not marker["printed"]:
        with capsys.disabled():
            print(f"{request.node.name}: FAIL")


def _finish(announce, label, started, limit_s):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"{label} took {elapsed:.1f}s, limit {limit_s}s"
    announce(f"{label}: PASS ({elapsed:.1f}s)")


def _verify_table(ex, key, levels=None, d=None):
    tab = ex.tables[key] if levels is not None else ex.tables[key]
    prob = ex.problem
    if levels is None:
        sub = prob
    else:
        joined = join_many([prob.partitions[i - 1] for i in levels])
        sub = canonicalize_problem([joined], [d if d is not None else tab["d"]])
    enc = encoding_from_rows(prob.space, tab["rows"])
    return verify_gfcpc(enc, sub).valid


def test_criterion_1_first_worked_case(announce):
    started = time.monotonic()
    ex = load_example("ex1")
    prob = ex.problem
    enc, trace = multi_step_construct(prob)
    assert trace.per_step_r == (3, 2)
    assert enc.r == 5
    assert verify_gfcpc(enc, prob).valid
    # separate single-level codes: one per partition at its own distance
    singles = []
    for h in (1, 2):
        single = canonicalize_problem([prob.partitions[h - 1]], [prob.distances[h - 1]])
        enc_h, _ = multi_step_construct(single)
        singles.append(enc_h.r)
    assert singles == [2, 4]
    assert sum(singles) == 6
    assert _verify_table(ex, "p1_code", levels=[1])
    assert _verify_table(ex, "p2_code", levels=[2])
    assert _verify_table(ex, "multistep")
    _finish(announce, "criterion 1 (worked case 1)", started, 10)


def test_criterion_2_second_worked_case(announce):
    started = time.monotonic()
    ex = load_example("ex2")
    prob = ex.problem
    jprob = canonicalize_problem([join_many(prob.partitions)], [prob.distances[-1]])
    msgs = [prob.space.parse(t) for t in ("000", "100", "200", "010")]
    rep = lower_bound_drm_submatrix(jprob, msgs)
    assert rep.value == 5
    assert _verify_table(ex, "join5_code", levels=[1, 2], d=5)
    enc, _ = multi_step_construct(prob)
    assert enc.r == 4
    assert verify_gfcpc(enc, prob).valid
    exact = optimal_redundancy_exact(prob)
    assert exact.status == "exact"
    assert exact.value == 4
    _finish(announce, "criterion 2 (worked case 2)", started, 60)


def test_criterion_3_third_worked_case(announce):
    started = time.monotonic()
    ex = load_example("ex3")
    prob = ex.problem
    grouped = upper_bound_grouping(prob)
    by_name = {str(row["grouping"]): row["total"] for row in grouped.certificate["table"]}
    assert by_name == {
        "{1}{2}{3}": 14,
        "{1,2}{3}": 13,
        "{1,3}{2}": 17,
        "{1}{2,3}": 17,
        "{1,2,3}": 17,
    }
    assert sorted(by_name.values()) == [13, 14, 17, 17, 17]
    assert grouped.value == 13
    assert str(grouped.certificate["grouping"]) == "{1,2}{3}"
    enc, trace = multi_step_construct(prob)
    assert trace.per_step_r == (3, 0, 8)
    assert enc.r == 11
    assert verify_gfcpc(enc, prob).valid
    lower = lower_bound_joins(prob)
    assert [t["value"] for t in lower.certificate["terms"]] == [3, 3, 10]
    assert lower.value == 10
    for key, tab in ex.tables["codes"].items():
        levels = [int(x) for x in key.split(",")]
        joined = join_many([prob.partitions[i - 1] for i in levels])
        sub = canonicalize_problem([joined], [tab["d"]])
        code = encoding_from_rows(prob.space, tab["rows"])
        assert verify_gfcpc(code, sub).valid, key
    assert _verify_table(ex, "multistep")
    _finish(announce, "criterion 3 (worked case 3)", started, 60)


def test_criterion_4_requirement_matrix_case(announce):
    started = time.monotonic()
    ex = load_example("ex4")
    prob = ex.problem
    msgs = [prob.space.parse(t) for t in ex.tables["messages"]]
    mat = gfcpc_drm(prob, msgs)
    assert [list(r) for r in mat.entries] == ex.tables["entries"]
    got_levels = [
        [lv if lv is not None else 0 for lv in row] for row in mat.source_level
    ]
    assert got_levels == ex.tables["levels"]
    idx = {t: i for i, t in enumerate(ex.tables["messages"])}
    # named single entries with their deciding level
    assert mat.entry(idx["0000"], idx["1000"]) == 4
    assert mat.source_level[idx["0000"]][idx["1000"]] == 2
    assert mat.entry(idx["1010"], idx["0110"]) == 0
    assert mat.entry(idx["0000"], idx["1111"]) == 3
    assert mat.source_level[idx["0000"]][idx["1111"]] == 3
    # the four highlighted same-block zeros, both orientations
    for a, b in (("1010", "0110"), ("1001", "0101")):
        assert mat.entry(idx[a], idx[b]) == 0
        assert mat.entry(idx[b], idx[a]) == 0
        assert all(
            same_block(p, prob.space.parse(a), prob.space.parse(b))
            for p in prob.partitions
        )
    # ten further spot checks spread across the matrix
    spots = [
        ("0000", "0100", 4), ("0000", "1100", 3), ("1000", "0100", 1),
        ("0010", "0001", 5), ("1100", "0011", 3), ("1110", "1101", 5),
        ("0111", "1111", 4), ("1011", "0111", 0), ("0101", "0011", 5),
        ("1000", "0111", 3),
    ]
    for a, b, want in spots:
        assert mat.entry(idx[a], idx[b]) == want, (a, b)
    for key, blocks in ex.tables["joins"].items():
        levels = [int(x) for x in key.split(",")]
        joined = join_many([prob.partitions[i - 1] for i in levels])
        got = sorted(sorted(prob.space.render(u) for u in b) for b in joined.blocks)
        assert got == sorted(sorted(b) for b in blocks), key
    _finish(announce, "criterion 4 (requirement matrix case)", started, 60)


def test_criterion_5_triple_witness_case(announce):
    started = time.monotonic()
    ex = load_example("ex5")
    prob = ex.problem
    witness = scan_binary_triple_witness(prob.partitions[1])
    assert witness is not None
    u, v, w = witness
    p2 = prob.partitions[1]
    assert len({p2.block_of(u), p2.block_of(v), p2.block_of(w)}) == 3
    assert hamming_distance(u, v) == 1
    assert hamming_distance(u, w) == 1
    assert hamming_distance(v, w) == 2
    rep = binary_triple_bound(prob)
    assert rep.value == 6
    _finish(announce, "criterion 5 (triple witness case)", started, 60)


def test_criterion_6_ternary_case(announce):
    started = time.monotonic()
    ex = load_example("ex6")
    prob = ex.problem
    assert prob.space.q == 3 and prob.distances == (3, 5)
    code = encoding_from_rows(prob.space, ex.tables["code"]["rows"])
    assert code.r == 4
    assert verify_gfcpc(code, prob).valid
    exact = optimal_redundancy_exact(prob)
    assert exact.status == "exact"
    assert exact.value == 4
    assert verify_gfcpc(exact.certificate["encoding"], prob).valid
    d1, d2 = prob.distances
    formula = d2 + -(-d1 // 2) - 2
    assert formula == 5
    assert formula > exact.value
    _finish(announce, "criterion 6 (ternary case)", started, 60)


def test_criterion_7_solver_oracle_equivalence(announce):
    started = time.monotonic()
    rng = random.Random(20260824)
    compared = 0
    attempts = 0
    while compared < 200:
        attempts += 1
        assert attempts < 2000
        q = rng.choice([2, 3])
        m = rng.randint(1, 4)
        entries = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                e = rng.randint(0, 5)
                entries[i][j] = entries[j][i] = e
        msgs = tuple((i,) for i in range(m))
        levels = tuple(
            tuple(1 if i != j and entries[i][j] else None for j in range(m))
            for i in range(m)
        )
        mat = RequirementMatrix(msgs, tuple(map(tuple, entries)), levels)
        res = min_length_dcode(mat, q)
        assert res.is_exact
        if q**res.n > 2**13:
            continue  # beyond the oracle's enumeration capacity
        assert brute_force_ndcode_oracle(mat, q, res.n) == res.n
        if res.n > 0 and q ** (res.n - 1) <= 2**13:
            assert brute_force_ndcode_oracle(mat, q, res.n - 1) is None
        compared += 1
    assert compared >= 200
    _finish(announce, "criterion 7 (solver oracle equivalence)", started, 120)


def _independent_optimal_redundancy(prob, r_cap=8):
    """Exhaustive search over systematic encodings, first parity pinned to zero.

    Checks the distance condition directly against the partitions, without
    going through the requirement matrix or the solver.
    """
    space = prob.space
    msgs = space.vectors()
    m = len(msgs)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            need = 0
            for p, d in zip(prob.partitions, prob.distances):
                if not same_block(p, msgs[i], msgs[j]):
                    need = max(need, d - hamming_distance(msgs[i], msgs[j]))
            if need > 0:
                pairs.append((i, j, need))
    if not pairs:
        return 0
    for r in range(r_cap + 1):
        vecs = list(itertools.product(range(space.q), repeat=r))
        zero = vecs[0]
        for rest in itertools.product(vecs, repeat=m - 1):
            parities = (zero,) + rest
            if all(
                hamming_distance(parities[i], parities[j]) >= need
                for i, j, need in pairs
            ):
                return r
    return None


def test_criterion_8_exact_characterization_micro(announce):
    started = time.monotonic()
    rng = random.Random(7)
    for trial in range(20):
        prob = random_problem(rng, q=2, k_max=2, h_max=2, d_max=4)
        while prob.space.k != 2:
            prob = random_problem(rng, q=2, k_max=2, h_max=2, d_max=4)
        mat = gfcpc_drm(prob, prob.space.vectors())
        res = min_length_dcode(mat, 2)
        assert res.is_exact
        independent = _independent_optimal_redundancy(prob)
        assert independent == res.n, trial
    _finish(announce, "criterion 8 (exact characterization, micro)", started, 120)


def _criterion_9_problems():
    rng = random.Random(99)
    out = []
    for _ in range(100):
        out.append(random_problem(rng, q=2, k_max=3, h_max=3, d_max=5))
    return out


def test_criterion_9_construction_soundness(announce):
    started = time.monotonic()
    rng = random.Random(100)
    for i, prob in enumerate(_criterion_9_problems()):
        enc, _ = multi_step_construct(prob)
        assert verify_gfcpc(enc, prob).valid, i
        levels = list(range(1, prob.H + 1))
        rng.shuffle(levels)
        cut = rng.randint(1, prob.H)
        grouping = [sorted(levels[:cut]), sorted(levels[cut:])]
        grouping = [g for g in grouping if g]
        enc2, _ = grouped_construct(prob, grouping)
        assert verify_gfcpc(enc2, prob).valid, i
    _finish(announce, "criterion 9 (construction soundness)", started, 120)


def test_criterion_10_decoder_guarantee(announce):
    started = time.monotonic()
    ex = load_example("ex1")
    prob = ex.problem
    enc, _ = multi_step_construct(prob)
    space = prob.space
    n = enc.n
    patterns = [
        e
        for e in itertools.product(range(space.q), repeat=n)
        if hamming_weight(e) <= prob.t(prob.H)
    ]
    for u in space.enumerate():
        cw = enc.codeword(u)
        for e in patterns:
            w = hamming_weight(e)
            word = tuple((a + b) % space.q for a, b in zip(cw, e))
            for h in (1, 2):
                if w <= prob.t(h):
                    got = decode_block(enc, prob, h, word)
                    assert got == prob.partitions[h - 1].block_of(u), (u, e, h)
    _finish(announce, "criterion 10 (decoder guarantee)", started, 60)


def test_criterion_11_bound_ordering(announce):
    started = time.monotonic()
    checked = 0
    for i, prob in enumerate(_criterion_9_problems()):
        exact = optimal_redundancy_exact(prob)
        if exact.status != "exact":
            continue
        checked += 1
        lows = [
            lower_bound_joins(prob).value,
            lower_bound_trivial(prob).value,
            lower_bound_drm_submatrix(prob, prob.space.vectors()[:4]).value,
        ]
        ups = [
            upper_bound_grouping(prob).value,
            upper_bound_multistep(prob).value,
        ]
        for lo in lows:
            assert lo <= exact.value, i
        for up in ups:
            assert exact.value <= up, i
    assert checked >= 50
    _finish(announce, "criterion 11 (bound ordering)", started, 600)
