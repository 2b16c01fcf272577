from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcpc.codec import (
    BudgetExceeded,
    SystematicEncoding,
    _block_residual_matrix,
    decode_block,
    grouped_construct,
    multi_step_construct,
    verify_gfcpc,
)
from gfcpc.drm import canonicalize_problem
from gfcpc.errors import InputError, ShapeError
from gfcpc.partition import Partition, is_refinement, join_many
from gfcpc.solver import SearchBudget
from gfcpc.space import Space, hamming_distance

from conftest import random_problem, reference_block_residual_matrix, reference_verify_gfcpc


def _parts(space, *blocks_text):
    return Partition.from_blocks(
        space, [[space.parse(t) for t in b] for b in blocks_text]
    )


def _two_level_problem():
    space = Space(2, 2)
    p1 = _parts(space, ["00", "01"], ["10", "11"])
    p2 = _parts(space, ["00", "10"], ["01", "11"])
    return canonicalize_problem([p1, p2], [3, 3])


def test_encoding_validation():
    space = Space(2, 1)
    with pytest.raises(InputError):
        SystematicEncoding(space, 1, {(0,): (0,)})  # missing message 1
    with pytest.raises(InputError):
        SystematicEncoding(space, 2, {(0,): (0,), (1,): (1,)})  # short parity
    with pytest.raises(InputError):
        SystematicEncoding(space, 1, {(0,): (0,), (1,): (2,)})  # bad symbol
    enc = SystematicEncoding(space, 1, {(0,): (0,), (1,): (1,)})
    assert enc.codeword((1,)) == (1, 1)
    assert enc.n == 2


def test_encoding_rejects_messages_outside_its_space():
    space = Space(2, 1)
    with pytest.raises(InputError):
        SystematicEncoding(space, 1, {(0,): (0,), (5,): (1,)})
    with pytest.raises(ShapeError):
        SystematicEncoding(space, 1, {(0,): (0,), (1, 0): (1,)})


def test_verify_gfcpc_reports_violations():
    prob = _two_level_problem()
    space = prob.space
    zero = SystematicEncoding(space, 0, {u: () for u in space.enumerate()})
    report = verify_gfcpc(zero, prob)
    assert not report.valid
    v = report.violations[0]
    assert v.required > v.achieved
    assert 1 <= v.h <= 2
    # every reported pair really is split by the reported level
    for v in report.violations:
        p = prob.partitions[v.h - 1]
        assert p.block_of(v.u) != p.block_of(v.v)


def test_verify_gfcpc_space_mismatch():
    prob = _two_level_problem()
    other = Space(2, 3)
    enc = SystematicEncoding(other, 0, {u: () for u in other.enumerate()})
    with pytest.raises(ShapeError):
        verify_gfcpc(enc, prob)


def test_multistep_trace_structure():
    prob = _two_level_problem()
    enc, trace = multi_step_construct(prob)
    assert len(trace.steps) == prob.H
    assert enc.r == trace.total_r == sum(trace.per_step_r)
    assert verify_gfcpc(enc, prob).valid
    # step h works on the join of partitions h..H
    for step in trace.steps:
        expect = join_many(prob.partitions[step.h - 1 :])
        assert step.join_partition == expect
        assert is_refinement(expect, prob.partitions[step.h - 1])


def test_equal_distance_second_step_free():
    # When both levels demand the same distance, the first step's join code
    # already covers the second level, so its residual step adds nothing.
    prob = _two_level_problem()
    _, trace = multi_step_construct(prob)
    assert trace.per_step_r[1] == 0


def test_grouped_construct_matches_groups():
    prob = _two_level_problem()
    enc, per_group = grouped_construct(prob, [[1, 2]])
    assert len(per_group) == 1
    assert enc.r == sum(per_group)
    assert verify_gfcpc(enc, prob).valid
    enc2, per2 = grouped_construct(prob, [[1], [2]])
    assert len(per2) == 2
    assert verify_gfcpc(enc2, prob).valid


def test_grouped_construct_validates_grouping():
    prob = _two_level_problem()
    with pytest.raises(InputError):
        grouped_construct(prob, [[1]])  # level 2 missing
    with pytest.raises(InputError):
        grouped_construct(prob, [[1, 2], [2]])  # level 2 twice
    with pytest.raises(InputError):
        grouped_construct(prob, [[1, 2, 3]])  # level out of range


def test_construct_budget_exhaustion(monkeypatch):
    # Small instances always solve exactly, so stub the solver to give up.
    import gfcpc.codec as codec_mod
    from gfcpc.solver import SolveResult

    def give_up(D, q, budget=None):
        return SolveResult(status="budget", lower=1, upper=5)

    monkeypatch.setattr(codec_mod, "min_length_dcode", give_up)
    prob = _two_level_problem()
    with pytest.raises(BudgetExceeded) as exc:
        multi_step_construct(prob, SearchBudget(node_limit=1))
    assert exc.value.result.status == "budget"


def test_random_constructions_verify():
    rng = random.Random(0)
    for _ in range(15):
        prob = random_problem(rng, q=rng.choice([2, 3]), k_max=2, h_max=3, d_max=4)
        enc, _ = multi_step_construct(prob)
        assert verify_gfcpc(enc, prob).valid
        groups = [[h] for h in range(1, prob.H + 1)]
        enc2, _ = grouped_construct(prob, groups)
        assert verify_gfcpc(enc2, prob).valid


def test_decode_block_within_radius():
    prob = _two_level_problem()
    enc, _ = multi_step_construct(prob)
    t1 = prob.t(1)
    for u in prob.space.enumerate():
        cw = enc.codeword(u)
        for flips in itertools.combinations(range(enc.n), t1):
            word = list(cw)
            for i in flips:
                word[i] ^= 1
            got = decode_block(enc, prob, 1, tuple(word))
            assert got == prob.partitions[0].block_of(u)


def test_decode_block_failure_modes():
    prob = _two_level_problem()
    enc, _ = multi_step_construct(prob)
    with pytest.raises(InputError):
        decode_block(enc, prob, 3, enc.codeword((0, 0)))
    with pytest.raises(ShapeError):
        decode_block(enc, prob, 1, (0, 0))
    # radius n swallows every codeword: blocks mix, decoding must fail
    assert decode_block(enc, prob, 1, enc.codeword((0, 0)), t=enc.n) is None


def _random_parity(rng, space, r):
    return {u: tuple(rng.randrange(space.q) for _ in range(r)) for u in space.enumerate()}


def _random_encoding(rng, prob):
    """A valid repetition code a third of the time, else random parity (mostly invalid).

    The repetition code's parity is the message d_H - 1 times over, so
    distinct messages end up at distance >= d_H.
    """
    if rng.random() < 1 / 3:
        reps = prob.distances[-1] - 1
        parity = {u: u * reps for u in prob.space.enumerate()}
        return SystematicEncoding(prob.space, prob.space.k * reps, parity)
    r = rng.randint(0, 3)
    return SystematicEncoding(prob.space, r, _random_parity(rng, prob.space, r))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_verify_gfcpc_matches_pair_loop(seed, q):
    rng = random.Random(seed)
    prob = random_problem(rng, q=q, k_max=3, h_max=3, d_max=5)
    enc = _random_encoding(rng, prob)
    report = verify_gfcpc(enc, prob)
    expected = reference_verify_gfcpc(enc, prob)
    assert report.violations == expected  # same tuples, same (a, b, h) order
    assert report.valid == (not expected)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_block_residual_matrix_matches_pair_loop(seed, q):
    rng = random.Random(seed)
    prob = random_problem(rng, q=q, k_max=3, h_max=3, d_max=5)
    h = rng.randint(1, prob.H)
    q_h = join_many(prob.partitions[h - 1 :])
    cumulative = _random_parity(rng, prob.space, rng.randint(0, 3))
    got = _block_residual_matrix(q_h, prob.distances[h - 1], cumulative)
    assert got == reference_block_residual_matrix(q_h, prob.distances[h - 1], cumulative)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_decode_block_matches_brute_force(seed, q):
    rng = random.Random(seed)
    prob = random_problem(rng, q=q, k_max=3, h_max=3, d_max=5)
    enc = _random_encoding(rng, prob)
    h = rng.randint(1, prob.H)
    t = rng.choice([None, rng.randint(0, enc.n)])
    if rng.random() < 0.5:
        word = list(enc.codeword(rng.choice(prob.space.vectors())))
        for i in rng.sample(range(enc.n), rng.randint(0, enc.n)):
            word[i] = rng.randrange(q)
    else:
        word = [rng.randrange(q) for _ in range(enc.n)]
    received = tuple(word)
    radius = prob.t(h) if t is None else t
    part = prob.partitions[h - 1]
    blocks = {
        part.block_of(u)
        for u in prob.space.enumerate()
        if hamming_distance(enc.codeword(u), received) <= radius
    }
    expected = blocks.pop() if len(blocks) == 1 else None
    assert decode_block(enc, prob, h, received, t) == expected
