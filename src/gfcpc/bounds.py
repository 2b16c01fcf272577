"""Redundancy bounds: join-based lower bounds, the grouping upper bound over
all index-set partitions, requirement-matrix exact and submatrix bounds, and
the two binary witness-based lower bounds.

Every report carries a status so budget exhaustion degrades soundly: a lower
bound is never overstated and an upper bound is never understated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .codec import SystematicEncoding, group_code, multi_step_construct
from .drm import Problem, canonicalize_problem, gfcpc_drm
from .errors import CapacityError, DomainError, InputError
from .partition import Partition, join_many
from .solver import SearchBudget, SolveResult, min_length_dcode, restricted_growth_strings
from .space import Vec, hamming_distance, neighbors

# Bell(8) = 4140 groupings; beyond that the enumeration is no longer desk scale.
_GROUPING_CAP = 8

BOUND_KINDS = (
    "lower-join",
    "lower-drm-submatrix",
    "lower-trivial",
    "lower-binary-triple",
    "lower-binary-structural",
    "upper-grouping",
    "upper-multistep",
    "exact",
)


@dataclass(frozen=True)
class IndexGrouping:
    """A set partition of the protection levels {1..H}."""

    groups: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return "".join("{" + ",".join(str(i) for i in g) + "}" for g in self.groups)


@dataclass(frozen=True)
class BoundReport:
    kind: str
    value: int
    status: str  # exact | lower | upper | interval | inapplicable
    certificate: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in BOUND_KINDS:
            raise InputError(f"unknown bound kind {self.kind!r}")
        if self.value < 0:
            raise InputError(f"bound value must be >= 0, got {self.value}")


def enumerate_index_groupings(H: int) -> list[IndexGrouping]:
    """All set partitions of {1..H} via restricted-growth strings, lexicographic."""
    if H < 1:
        raise InputError(f"H must be >= 1, got {H}")
    if H > _GROUPING_CAP:
        raise CapacityError(f"H = {H} exceeds grouping enumeration cap {_GROUPING_CAP}")
    out: list[IndexGrouping] = []
    for rgs in restricted_growth_strings(H, H):
        groups: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for level, g in enumerate(rgs, start=1):
            groups[g].append(level)
        out.append(IndexGrouping(tuple(tuple(g) for g in groups)))
    return out


def _solve_drm(prob: Problem, msgs: Sequence[Vec], budget: SearchBudget | None) -> SolveResult:
    """N of prob's requirement matrix on msgs; `lower` bounds N, finished or not."""
    return min_length_dcode(gfcpc_drm(prob, msgs), prob.space.q, budget)


def lower_bound_joins(
    prob: Problem, budget: SearchBudget | None = None
) -> BoundReport:
    """max over h of the suffix-join single-partition redundancy at d_h.

    Each term is the exact minimum parity length for the join's full-space
    demands when the solver finishes, otherwise the solver's certified lower
    bound; either way the maximum is a valid lower bound.
    """
    msgs = prob.space.vectors()
    terms = []
    for h in range(1, prob.H + 1):
        q_h = join_many(prob.partitions[h - 1 :])
        res = _solve_drm(canonicalize_problem([q_h], [prob.distances[h - 1]]), msgs, budget)
        terms.append({"h": h, "value": res.lower, "exact": res.is_exact})
    best = max(terms, key=lambda t: t["value"])
    return BoundReport(
        kind="lower-join",
        value=best["value"],
        status="lower",
        certificate={"achieving_h": best["h"], "terms": terms},
    )


def lower_bound_drm_submatrix(
    prob: Problem, msgs: Sequence[Vec], budget: SearchBudget | None = None
) -> BoundReport:
    """N of the requirement matrix restricted to a chosen message subset."""
    res = _solve_drm(prob, msgs, budget)
    return BoundReport(
        kind="lower-drm-submatrix",
        value=res.lower,
        status="lower",
        certificate={"messages": tuple(tuple(u) for u in msgs), "exact": res.is_exact},
    )


def lower_bound_trivial(prob: Problem) -> BoundReport:
    """d_H - 1, witnessed by a Hamming-adjacent pair split by the last partition."""
    p_h = prob.partitions[-1]
    if len(p_h) < 2:
        return BoundReport(
            kind="lower-trivial", value=0, status="lower",
            certificate={"note": "last partition has a single block"},
        )
    for u in prob.space.enumerate():
        for v in neighbors(prob.space, u):
            if p_h.block_of(u) != p_h.block_of(v):
                return BoundReport(
                    kind="lower-trivial",
                    value=prob.distances[-1] - 1,
                    status="lower",
                    certificate={"u": u, "v": v},
                )
    raise AssertionError("a multi-block partition must split some adjacent pair")


def _require_binary(what: str, *qs: int, H: int = 2) -> None:
    """The domain of the binary bounds and their witness scans: q = 2, H = 2."""
    if any(q != 2 for q in qs):
        # a scan over two partitions has no single q to name
        got = f", got q = {qs[0]}" if len(qs) == 1 else ""
        raise DomainError(f"{what} requires q = 2{got}")
    if H != 2:
        raise InputError(f"{what} requires H = 2, got H = {H}")


def scan_binary_triple_witness(p2: Partition) -> tuple[Vec, Vec, Vec] | None:
    """First (u, v, w) with d(u,v) = d(u,w) = 1, d(v,w) = 2, in three distinct blocks."""
    _require_binary("binary witness scan", p2.space.q)
    for u in p2.space.enumerate():
        nbrs = neighbors(p2.space, u)
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                v, w = nbrs[a], nbrs[b]
                ids = {p2.block_of(u), p2.block_of(v), p2.block_of(w)}
                if len(ids) == 3:
                    return u, v, w
    return None


def binary_triple_bound(prob: Problem) -> BoundReport:
    """ceil(3 d_2 / 2 - 2) when a three-block adjacent triple exists in P_2."""
    _require_binary("binary triple bound", prob.space.q, H=prob.H)
    witness = scan_binary_triple_witness(prob.partitions[1])
    if witness is None:
        return BoundReport(
            kind="lower-binary-triple", value=0, status="inapplicable",
            certificate={"note": "no three-block adjacent triple in the second partition"},
        )
    d2 = prob.distances[1]
    value = -(-(3 * d2 - 4) // 2)
    return BoundReport(
        kind="lower-binary-triple", value=value, status="lower",
        certificate={"u": witness[0], "v": witness[1], "w": witness[2]},
    )


def scan_binary_structural_witness(
    p1: Partition, p2: Partition
) -> tuple[int, frozenset[Vec], Vec, Vec, Vec] | None:
    """First structural witness (condition, block, v, w, u); condition 1 takes priority.

    Condition 1: v, w share a P_2 block B, d(v, w) = 1, lie in different P_1
    blocks, and one of them has a neighbor outside B. Condition 2: same but
    d(v, w) = 2 with a common neighbor outside B.
    """
    _require_binary("binary witness scan", p1.space.q, p2.space.q)
    space = p2.space
    for condition in (1, 2):
        for bi, block in enumerate(p2.blocks):
            members = sorted(block, key=space.rank)
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    v, w = members[x], members[y]
                    if hamming_distance(v, w) != condition:
                        continue
                    if p1.block_of(v) == p1.block_of(w):
                        continue
                    if condition == 1:
                        pool = set(neighbors(space, v)) | set(neighbors(space, w))
                    else:
                        pool = set(neighbors(space, v)) & set(neighbors(space, w))
                    outside = sorted(
                        (u for u in pool if p2.block_of(u) != bi), key=space.rank
                    )
                    if outside:
                        return condition, block, v, w, outside[0]
    return None


def binary_structural_bound(prob: Problem) -> BoundReport:
    """ceil(d_2 + d_1 / 2 - 2) when a structural witness exists."""
    _require_binary("binary structural bound", prob.space.q, H=prob.H)
    witness = scan_binary_structural_witness(prob.partitions[0], prob.partitions[1])
    if witness is None:
        return BoundReport(
            kind="lower-binary-structural", value=0, status="inapplicable",
            certificate={"note": "neither structural condition holds"},
        )
    d1, d2 = prob.distances
    value = -(-(2 * d2 + d1 - 4) // 2)
    condition, block, v, w, u = witness
    return BoundReport(
        kind="lower-binary-structural", value=value, status="lower",
        certificate={"condition": condition, "block": frozenset(block), "v": v, "w": w, "u": u},
    )


def upper_bound_grouping(
    prob: Problem, budget: SearchBudget | None = None
) -> BoundReport:
    """Minimum over set partitions of [H] of the summed per-group join redundancies.

    Each group of levels is served by one block-constant code on the join of
    its partitions at the group's largest distance; concatenation gives a
    valid encoding, so every row of the table is an upper bound.
    """
    groupings = enumerate_index_groupings(prob.H)
    cache: dict[frozenset[int], tuple[int, bool]] = {}
    table = []
    for grouping in groupings:
        per_group = []
        all_exact = True
        for g in grouping.groups:
            key = frozenset(g)
            if key not in cache:
                _, res = group_code(prob, g, budget)
                if res.is_exact:
                    cache[key] = (res.n or 0, True)
                else:
                    # Solver gave up; fall back to its certified upper bound.
                    cache[key] = (res.upper, False)
            value, exact = cache[key]
            per_group.append(value)
            all_exact = all_exact and exact
        table.append(
            {
                "grouping": grouping,
                "per_group": tuple(per_group),
                "total": sum(per_group),
                "exact": all_exact,
            }
        )
    best = min(table, key=lambda row: (row["total"], str(row["grouping"])))
    return BoundReport(
        kind="upper-grouping",
        value=best["total"],
        status="upper",
        certificate={"grouping": best["grouping"], "table": table},
    )


def upper_bound_multistep(
    prob: Problem, budget: SearchBudget | None = None
) -> BoundReport:
    """Total redundancy of the staged construction (always achievable)."""
    enc, trace = multi_step_construct(prob, budget)
    return BoundReport(
        kind="upper-multistep",
        value=enc.r,
        status="upper",
        certificate={"per_step": trace.per_step_r, "encoding": enc},
    )


def optimal_redundancy_exact(
    prob: Problem, budget: SearchBudget | None = None
) -> BoundReport:
    """Exact optimal redundancy: minimum length for the full-space requirement matrix."""
    msgs = prob.space.vectors()
    res = _solve_drm(prob, msgs, budget)
    if res.is_exact:
        assert res.witness is not None and res.n is not None
        enc = SystematicEncoding(prob.space, res.n, dict(zip(msgs, res.witness.parities)))
        return BoundReport(
            kind="exact", value=res.n, status="exact",
            certificate={"encoding": enc, "nodes": res.nodes},
        )
    return BoundReport(
        kind="exact", value=res.lower, status="interval",
        certificate={"lower": res.lower, "upper": res.upper, "nodes": res.nodes},
    )


# ---------------------------------------------------------------------------
# Rendering


def grouping_table_text(report: BoundReport) -> str:
    """Aligned table of the grouping bound: one row per index-set partition."""
    if report.kind != "upper-grouping":
        raise InputError(f"expected an upper-grouping report, got {report.kind!r}")
    rows = []
    for row in report.certificate["table"]:
        expr = " + ".join(str(v) for v in row["per_group"])
        marker = "" if row["exact"] else " (upper only)"
        rows.append((str(row["grouping"]), f"{expr} = {row['total']}{marker}"))
    width = max(len(name) for name, _ in rows)
    lines = [f"{name.ljust(width)}  {expr}" for name, expr in rows]
    lines.append(f"minimum: {report.value} at {report.certificate['grouping']}")
    return "\n".join(lines) + "\n"
