"""Exact search for shortest codes meeting a distance requirement matrix.

``min_length_dcode`` certifies the minimum parity length N admitting a code
whose pairwise Hamming distances dominate the matrix. It has one dispatch:

* when the canonical column patterns fit under a cap, it solves a covering
  program. Up to per-column symbol relabeling a code is exactly a multiset
  of patterns, so the minimum length is the optimum of a small integer
  program, solved exactly with HiGHS via scipy;
* otherwise, or when HiGHS stops short of an optimum, it walks lengths
  upward from a certified lower bound. A parity-first depth-first search
  decides each length: it finds a witness or certifies the length
  infeasible. The search assigns whole parity vectors message by message
  and breaks the per-coordinate symbol-relabeling symmetry, a
  distance-preserving transformation, so exactness is kept. For six or more
  messages a short round comes first: 4,000 min-conflicts repairs, then the
  DFS capped at 120,000 nodes; if neither decides, 3 seeds x 30,000 repairs
  run and the paused DFS resumes, to the caller's node limit. Neither method
  dominates: local search finds loose witnesses fast, and the DFS proves
  tight lengths infeasible fast.

The first feasible length is the true minimum. A budget binds every stage:
one deadline covers the whole call (HiGHS gets the time left), the node limit
also caps HiGHS's branch-and-bound nodes and each min-conflicts seed, and a
stopped walk or an optimum above the length cap brackets N.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Generator, Sequence

import numpy as np

from .drm import RequirementMatrix
from .errors import InputError, ShapeError
from .space import Vec, distance_matrix, hamming_distance

_COLUMN_PATTERN_CAP = 20000
# min-conflicts pass: only worthwhile when the message count makes the
# exhaustive search risky and the candidate space is nontrivial
_LOCAL_SEARCH_MIN_M = 6
_LOCAL_SEARCH_SEEDS = 3
_LOCAL_SEARCH_ITERS = 30000
# the short first round: every seed-0 success on the paper's examples and the
# benchmark's search pool takes at most 2,806 repairs, and one repair costs
# about the time of 30 DFS nodes
_FIRST_ROUND_REPAIRS = 4000
_FIRST_ROUND_NODES = 30 * _FIRST_ROUND_REPAIRS


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
    """Search nodes against the caller's limit and deadline, and a round's own cap.

    `stop` is the round cap, never above `limit`: passing `limit` or the
    deadline raises _BudgetExhausted; tick returns True past the cap alone.
    """

    __slots__ = ("nodes", "limit", "stop", "deadline")

    def __init__(self, limit: int, wall_clock_s: float | None):
        self.nodes = 0
        self.limit = self.stop = limit
        self.deadline = None if wall_clock_s is None else time.monotonic() + wall_clock_s

    def tick(self, amount: int = 1) -> bool:
        self.nodes += amount
        if self.nodes > self.stop:
            if self.nodes > self.limit:
                raise _BudgetExhausted
            return True
        if self.deadline is not None and (self.nodes & 0xFFF) == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExhausted
        return False


def verify_dcode(
    parities: Sequence[Vec], D: RequirementMatrix
) -> tuple[bool, list[tuple[int, int]]]:
    """Check pairwise distances against the matrix; returns (ok, violating 0-based pairs)."""
    if len(parities) != D.m:
        raise ShapeError(f"{len(parities)} parities for a {D.m}-message matrix")
    dist = distance_matrix(parities)
    violations = [
        (i, j) for i, j in np.argwhere(dist < np.array(D.entries)).tolist() if i < j
    ]
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


def _parity_search(
    entries: list[list[int]], q: int, r: int, counter: _Counter
) -> Generator[None, None, list[Vec] | None]:
    """Parity-first DFS for a length-r witness; returns it, or None if there is none.

    Yields (pauses) each time a node passes the counter's round cap; a later
    next() resumes it where it stopped, so no node is searched or charged twice.
    """
    m = len(entries)
    parities: list[Vec] = [(0,) * r]
    fresh = [1] * r  # distinct symbols already used per coordinate (symbol 0 counts)

    def rec(i: int) -> Generator[None, None, bool]:
        if i == m:
            return True
        row = entries[i]
        ranges = [range(min(fresh[c] + 1, q)) for c in range(r)]
        for cand in itertools.product(*ranges):
            if counter.tick():
                yield
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
            if (yield from rec(i + 1)):
                return True
            parities.pop()
            for c in bumped:
                fresh[c] -= 1
        return False

    if m == 0:
        return []
    return parities if (yield from rec(1)) else None


def _finish(search: Generator[None, None, list[Vec] | None]) -> list[Vec] | None:
    """Run a DFS to its end; the counter's round cap must be lifted."""
    try:
        next(search)
    except StopIteration as end:
        return end.value
    raise AssertionError("the DFS pauses only at a round cap")


def _parity_dfs(
    entries: list[list[int]], q: int, r: int, counter: _Counter
) -> list[Vec] | None:
    return _finish(_parity_search(entries, q, r, counter))


# ---------------------------------------------------------------------------
# Column-pattern covering program and min-conflicts local search


def restricted_growth_strings(m: int, q: int) -> list[tuple[int, ...]]:
    """Restricted-growth tuples of length m >= 1 over at most q symbols, lexicographic.

    Each is the canonical form of a set partition of m items into at most q
    parts: as a column pattern, the column up to symbol relabeling.
    """
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


def _pattern_count(m: int, q: int) -> int:
    """len(restricted_growth_strings(m, q)): the Stirling numbers S(m, j) summed over j <= q."""
    row = [1] + [0] * q  # row[j] = S(n, j), from n = 0
    for _ in range(m):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, q + 1)]
    return sum(row)


def _milp_min_columns(
    entries: list[list[int]], q: int, options: dict[str, float] | None = None
) -> tuple[int, list[Vec]] | None:
    """Exact minimum length as an integer covering program over column patterns.

    Each column of a code is, up to symbol relabeling, one canonical pattern;
    a code of length r is a multiset of r patterns covering every pair's
    demand. `options` go to HiGHS as they are. Returns None when the pattern
    space is too large, HiGHS stops short of optimality (e.g. at its node or
    time limit), or the solver result fails re-verification.
    """
    m = len(entries)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if entries[i][j] > 0]
    if not pairs:
        return 0, [() for _ in range(m)]
    if _pattern_count(m, q) > _COLUMN_PATTERN_CAP:
        return None
    # imported here: the import costs about 0.5 s, which a walk-only solve skips
    from scipy.optimize import Bounds, LinearConstraint, milp

    patterns = restricted_growth_strings(m, q)
    # a[pair, pattern] = 1 when the pattern separates the pair
    i, j = np.array(pairs).T
    pats = np.array(patterns)
    a = (pats[:, i] != pats[:, j]).T.astype(float)
    b = np.array(entries, dtype=float)[i, j]
    res = milp(
        c=np.ones(len(patterns)),
        constraints=LinearConstraint(a, lb=b),
        integrality=np.ones(len(patterns)),
        bounds=Bounds(0, np.inf),
        options=options,
    )
    if res.status != 0 or res.x is None:
        return None
    cols = np.repeat(pats, np.rint(res.x).astype(int), axis=0)
    parities = [tuple(p) for p in cols.T.tolist()]
    if (distance_matrix(parities)[i, j] < b).any():
        return None
    return len(cols), parities


def _local_search(
    entries: list[list[int]], q: int, r: int, counter: _Counter, seed: int, repairs: int
) -> list[Vec] | None:
    """Seeded min-conflicts hunt for a length-r witness; sound but incomplete.

    Repeatedly repairs a violated pair by the single-symbol change that
    minimizes the touched message's total deficit, with occasional random
    walk steps: at most min(repairs, counter.limit) uncharged repairs, never
    past the deadline. A returned assignment meets every demand; failure
    proves nothing.
    """
    if r < 1:
        return None
    m = len(entries)
    e = np.array(entries)
    rng = np.random.default_rng(seed)
    p = rng.integers(0, q, size=(m, r))
    dist = distance_matrix(p.tolist())
    deficit = np.maximum(e - dist, 0)
    np.fill_diagonal(deficit, 0)
    for _ in range(min(repairs, counter.limit)):
        if counter.deadline is not None and time.monotonic() > counter.deadline:
            return None
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


def _decide_length(
    entries: list[list[int]], q: int, r: int, counter: _Counter
) -> list[Vec] | None:
    """A length-r witness, or None once the DFS proves there is none.

    Raises _BudgetExhausted when the caller's node limit or deadline runs
    out, inside the capped first round too.
    """
    if len(entries) < _LOCAL_SEARCH_MIN_M:
        return _parity_dfs(entries, q, r, counter)
    found = _local_search(entries, q, r, counter, 0, _FIRST_ROUND_REPAIRS)
    if found is not None:
        return found
    search = _parity_search(entries, q, r, counter)
    counter.stop = min(counter.limit, counter.nodes + _FIRST_ROUND_NODES)
    try:
        next(search)  # returns only when the DFS pauses at the round cap
    except StopIteration as end:
        return end.value
    finally:
        counter.stop = counter.limit
    for seed in range(_LOCAL_SEARCH_SEEDS):
        found = _local_search(entries, q, r, counter, seed, _LOCAL_SEARCH_ITERS)
        if found is not None:
            return found
    return _finish(search)


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
    counter = _Counter(budget.node_limit, budget.wall_clock_s)
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
    # HiGHS takes its node limit as a 32-bit int
    options: dict[str, float] = {"node_limit": min(budget.node_limit, 2**31 - 1)}
    if counter.deadline is not None:
        options["time_limit"] = max(counter.deadline - time.monotonic(), 0)
    milp_result = _milp_min_columns(entries, q, options)
    if milp_result is not None:
        n, found = milp_result
        assert n >= lb
        if n > cap:
            # the optimum lies past the caller's length cap
            return SolveResult(status="budget", lower=max(lb, cap + 1), upper=n)
        parities = tuple(found[inv[i]] for i in range(m))
        return SolveResult(
            status="exact", lower=n, upper=n, n=n, witness=DcodeWitness(n, parities)
        )
    r = lb
    while r <= cap:
        try:
            found = _decide_length(entries, q, r, counter)
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

