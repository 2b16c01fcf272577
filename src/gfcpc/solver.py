"""Exact search for shortest codes meeting a distance requirement matrix.

``min_length_dcode`` certifies the minimum parity length N admitting a code
whose pairwise Hamming distances dominate the matrix. It has one dispatch:

* when the canonical column patterns fit under a cap, it solves a covering
  program. Up to per-column symbol relabeling a code is exactly a multiset
  of patterns, so the minimum length is the optimum of a small integer
  program, solved exactly with HiGHS via scipy;
* otherwise it walks lengths upward from a certified lower bound. At each
  length a seeded min-conflicts pass hunts for a witness (for six or more
  messages), and a parity-first depth-first search either finds one or
  certifies the length infeasible. The search assigns whole parity vectors
  message by message and breaks the per-coordinate symbol-relabeling
  symmetry, a distance-preserving transformation, so exactness is kept.

The first feasible length is the true minimum. A budget stops only the
length walk and then yields an interval that brackets N.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .drm import RequirementMatrix
from .errors import CapacityError, InputError, ShapeError
from .space import Vec, hamming_distance

DCODE_MAGIC = "gfcpc-dcode v1"

_COLUMN_PATTERN_CAP = 20000
# min-conflicts pre-pass: only worthwhile when the message count makes the
# exhaustive search risky and the candidate space is nontrivial
_LOCAL_SEARCH_MIN_M = 6
_LOCAL_SEARCH_SEEDS = 3
_LOCAL_SEARCH_ITERS = 30000


@dataclass(frozen=True)
class DcodeWitness:
    """A concrete code: one parity vector per message, uniform length."""

    length: int
    parities: tuple[Vec, ...]


@dataclass(frozen=True)
class SearchBudget:
    """Caps on the exact search; exceeding one yields a budget result, never a wrong answer."""

    max_length: int | None = None
    node_limit: int = 10**8
    wall_clock_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_length is not None and self.max_length < 0:
            raise InputError("max_length must be >= 0")
        if self.node_limit < 1:
            raise InputError("node_limit must be >= 1")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of min_length_dcode.

    status 'exact': n is the certified minimum length and witness attains it.
    status 'budget': the search stopped early; [lower, upper] brackets N.
    """

    status: str
    lower: int
    upper: int
    n: int | None = None
    witness: DcodeWitness | None = None
    nodes: int = 0

    @property
    def is_exact(self) -> bool:
        return self.status == "exact"


class _BudgetExhausted(Exception):
    pass


class _Counter:
    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, limit: int, wall_clock_s: float | None):
        self.nodes = 0
        self.limit = limit
        self.deadline = None if wall_clock_s is None else time.monotonic() + wall_clock_s

    def tick(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.limit:
            raise _BudgetExhausted
        if self.deadline is not None and (self.nodes & 0xFFF) == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExhausted


def verify_dcode(
    parities: Sequence[Vec], D: RequirementMatrix
) -> tuple[bool, list[tuple[int, int]]]:
    """Check pairwise distances against the matrix; returns (ok, violating 0-based pairs)."""
    if len(parities) != D.m:
        raise ShapeError(f"{len(parities)} parities for a {D.m}-message matrix")
    lengths = {len(p) for p in parities}
    if len(lengths) > 1:
        raise ShapeError(f"parities have mixed lengths {sorted(lengths)}")
    violations = []
    for i in range(D.m):
        for j in range(i + 1, D.m):
            if hamming_distance(parities[i], parities[j]) < D.entries[i][j]:
                violations.append((i, j))
    return not violations, violations


def lower_bound_pairwise(D: RequirementMatrix) -> int:
    """Any code must be at least as long as the largest single demand."""
    return D.max_entry()


def lower_bound_triples(D: RequirementMatrix, q: int) -> int:
    """Triangle bound: pairwise distance sums over q-ary triples cap at 2r (q=2) or 3r."""
    if q < 2:
        raise InputError(f"alphabet size must be >= 2, got {q}")
    div = 2 if q == 2 else 3
    best = lower_bound_pairwise(D)
    e = D.entries
    for i in range(D.m):
        for j in range(i + 1, D.m):
            for k in range(j + 1, D.m):
                s = e[i][j] + e[i][k] + e[j][k]
                best = max(best, -(-s // div))
    return best


def _natural_upper_bound(entries: Sequence[Sequence[int]]) -> int:
    """Length of the dedicated-segment code: each message owns max-row-demand coordinates."""
    row_max = sorted((max(row, default=0) for row in entries), reverse=True)
    return sum(row_max[1:]) if row_max else 0


# ---------------------------------------------------------------------------
# Parity-first depth-first search


def _parity_dfs(
    entries: list[list[int]], q: int, r: int, counter: _Counter
) -> list[Vec] | None:
    m = len(entries)
    parities: list[Vec] = [(0,) * r]
    fresh = [1] * r  # distinct symbols already used per coordinate (symbol 0 counts)

    def rec(i: int) -> bool:
        if i == m:
            return True
        row = entries[i]
        ranges = [range(min(fresh[c] + 1, q)) for c in range(r)]
        for cand in itertools.product(*ranges):
            counter.tick()
            ok = True
            for j in range(i):
                need = row[j]
                if need and hamming_distance(cand, parities[j]) < need:
                    ok = False
                    break
            if not ok:
                continue
            bumped = [c for c in range(r) if cand[c] == fresh[c]]
            for c in bumped:
                fresh[c] += 1
            parities.append(cand)
            if rec(i + 1):
                return True
            parities.pop()
            for c in bumped:
                fresh[c] -= 1
        return False

    if m == 0:
        return []
    return parities if rec(1) else None


# ---------------------------------------------------------------------------
# Column-pattern covering program and min-conflicts local search


def _rgs_patterns(m: int, q: int) -> list[tuple[int, ...]]:
    """Canonical column patterns: restricted-growth tuples of length m starting at 0."""
    patterns: list[tuple[int, ...]] = []

    def rec(prefix: list[int], used: int) -> None:
        if len(prefix) == m:
            patterns.append(tuple(prefix))
            return
        for s in range(min(used + 1, q)):
            prefix.append(s)
            rec(prefix, max(used, s + 1))
            prefix.pop()

    rec([0], 1)
    return patterns


def _milp_min_columns(
    entries: list[list[int]], q: int
) -> tuple[int, list[Vec]] | None:
    """Exact minimum length as an integer covering program over column patterns.

    Each column of a code is, up to symbol relabeling, one canonical pattern;
    a code of length r is a multiset of r patterns covering every pair's
    demand. Returns None when the pattern space is too large or the solver
    result fails re-verification.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = len(entries)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if entries[i][j] > 0]
    if not pairs:
        return 0, [() for _ in range(m)]
    if q ** (m - 1) > 4 * _COLUMN_PATTERN_CAP:
        return None
    patterns = _rgs_patterns(m, q)
    if len(patterns) > _COLUMN_PATTERN_CAP:
        return None
    a = np.array(
        [[1 if pat[i] != pat[j] else 0 for pat in patterns] for i, j in pairs],
        dtype=float,
    )
    b = np.array([entries[i][j] for i, j in pairs], dtype=float)
    res = milp(
        c=np.ones(len(patterns)),
        constraints=LinearConstraint(a, lb=b),
        integrality=np.ones(len(patterns)),
        bounds=Bounds(0, np.inf),
    )
    if res.status != 0 or res.x is None:
        return None
    counts = np.rint(res.x).astype(int)
    cols: list[tuple[int, ...]] = []
    for pat, c in zip(patterns, counts):
        cols.extend([pat] * int(c))
    parities = [tuple(col[i] for col in cols) for i in range(m)]
    for i, j in pairs:
        if hamming_distance(parities[i], parities[j]) < entries[i][j]:
            return None
    return len(cols), parities


def _local_search(entries: list[list[int]], q: int, r: int) -> list[Vec] | None:
    """Seeded min-conflicts hunt for a length-r witness; sound but incomplete.

    Repeatedly repairs a violated pair by the single-symbol change that
    minimizes the touched message's total deficit, with occasional random
    walk steps. A returned assignment satisfies every demand exactly as
    checked here; failure proves nothing.
    """
    if r < 1:
        return None
    m = len(entries)
    e = np.array(entries)
    for seed in range(_LOCAL_SEARCH_SEEDS):
        rng = np.random.default_rng(seed)
        p = rng.integers(0, q, size=(m, r))
        dist = (p[:, None, :] != p[None, :, :]).sum(axis=2)
        deficit = np.maximum(e - dist, 0)
        np.fill_diagonal(deficit, 0)
        for _ in range(_LOCAL_SEARCH_ITERS):
            viol = np.argwhere(deficit > 0)
            if viol.size == 0:
                normal = (p - p[0]) % q
                return [tuple(int(x) for x in row) for row in normal]
            a, b = viol[rng.integers(len(viol))]
            i = int(a if rng.random() < 0.5 else b)
            cur = p[i].copy()
            moves = [(c, v) for c in range(r) for v in range(q) if v != cur[c]]
            if rng.random() < 0.05:
                c, v = moves[rng.integers(len(moves))]
            else:
                best = None
                best_cost = None
                for idx in rng.permutation(len(moves)):
                    c, v = moves[idx]
                    p[i, c] = v
                    d_i = (p[i][None, :] != p).sum(axis=1)
                    cost = int(np.maximum(e[i] - d_i, 0).sum()) - max(e[i][i] - r, 0)
                    p[i, c] = cur[c]
                    if best_cost is None or cost < best_cost:
                        best, best_cost = (c, v), cost
                assert best is not None
                c, v = best
            p[i, c] = v
            d_i = (p[i][None, :] != p).sum(axis=1)
            row = np.maximum(e[i] - d_i, 0)
            row[i] = 0
            deficit[i] = row
            deficit[:, i] = row
    return None


# ---------------------------------------------------------------------------
# Exact minimum length


def min_length_dcode(
    D: RequirementMatrix, q: int, budget: SearchBudget | None = None
) -> SolveResult:
    """Exact minimum code length for the matrix, with a concrete witness.

    Solves the column-pattern covering program when it fits; otherwise
    searches lengths upward from the pairwise/triple lower bound, where each
    length is either certified infeasible or yields a witness, so the first
    feasible length is the true minimum. Budget exhaustion returns a
    bracketing interval instead of a guess.
    """
    if budget is None:
        budget = SearchBudget()
    m = D.m
    if m <= 1:
        return SolveResult(
            status="exact", lower=0, upper=0, n=0,
            witness=DcodeWitness(0, tuple(() for _ in range(m))),
        )
    # Most-constrained messages first; ties by original position.
    order = sorted(range(m), key=lambda i: (-max(D.entries[i]), i))
    entries = [[D.entries[order[i]][order[j]] for j in range(m)] for i in range(m)]
    lb = max(lower_bound_pairwise(D), lower_bound_triples(D, q))
    nat_ub = _natural_upper_bound(entries)
    cap = nat_ub if budget.max_length is None else min(budget.max_length, nat_ub)
    inv = [0] * m
    for pos, idx in enumerate(order):
        inv[idx] = pos
    milp_result = _milp_min_columns(entries, q)
    if milp_result is not None:
        n, found = milp_result
        assert n >= lb
        parities = tuple(found[inv[i]] for i in range(m))
        return SolveResult(
            status="exact", lower=n, upper=n, n=n, witness=DcodeWitness(n, parities)
        )
    counter = _Counter(budget.node_limit, budget.wall_clock_s)
    r = lb
    while r <= cap:
        found = None
        if m >= _LOCAL_SEARCH_MIN_M:
            found = _local_search(entries, q, r)
        try:
            if found is None:
                found = _parity_dfs(entries, q, r, counter)
        except _BudgetExhausted:
            return SolveResult(status="budget", lower=r, upper=nat_ub, nodes=counter.nodes)
        if found is not None:
            parities = tuple(found[inv[i]] for i in range(m))
            return SolveResult(
                status="exact", lower=r, upper=r, n=r,
                witness=DcodeWitness(r, parities), nodes=counter.nodes,
            )
        r += 1
    if budget.max_length is not None and budget.max_length < nat_ub:
        # Caller capped the length below the dedicated-segment code, which
        # stays feasible and so still bounds N from above.
        return SolveResult(status="budget", lower=r, upper=nat_ub, nodes=counter.nodes)
    raise AssertionError("dedicated-segment code must be feasible at its own length")


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
        n = q**r
        vecs = np.array(list(itertools.product(range(q), repeat=r)), dtype=np.int8)
        if r == 0:
            vecs = vecs.reshape(1, 0)
        dist = (vecs[:, None, :] != vecs[None, :, :]).sum(axis=2)
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


# ---------------------------------------------------------------------------
# File format: gfcpc-dcode v1


def dcode_to_text(witness: DcodeWitness) -> str:
    lines = [DCODE_MAGIC, f"n {witness.length}"]
    for i, p in enumerate(witness.parities):
        text = "".join(str(s) for s in p) if p else "-"
        lines.append(f"parity {i} {text}")
    return "\n".join(lines) + "\n"
