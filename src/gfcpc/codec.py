"""Systematic encodings: verification, the staged construction, grouped
concatenation, and bounded-distance block decoding.

The staged construction first protects the join of all partitions at the
smallest distance, then walks the descending chain of suffix joins, appending
block-constant parity until each level's distance target is met. Appending
parity never shrinks a pairwise codeword distance, so earlier guarantees
survive later steps.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

from .drm import Problem, RequirementMatrix
from .errors import InputError, ShapeError
from .partition import Partition, join_many
from .solver import SearchBudget, SolveResult, min_length_dcode
from .space import Space, Vec, hamming_distance

ENCODING_MAGIC = "gfcpc-encoding v1"


@dataclass(frozen=True)
class SystematicEncoding:
    """A total message -> parity map of fixed parity length r."""

    space: Space
    r: int
    parity: dict[Vec, Vec]

    def __post_init__(self) -> None:
        if len(self.parity) != self.space.size:
            raise InputError(
                f"parity map covers {len(self.parity)} of {self.space.size} messages"
            )
        for u, p in self.parity.items():
            if len(p) != self.r:
                raise InputError(
                    f"parity for {self.space.render(u)} has length {len(p)}, expected {self.r}"
                )
            if any(not 0 <= s < self.space.q for s in p):
                raise InputError(f"parity symbol out of range for {self.space.render(u)}")

    def codeword(self, u: Vec) -> Vec:
        return tuple(u) + self.parity[tuple(u)]

    @property
    def n(self) -> int:
        return self.space.k + self.r


@dataclass(frozen=True)
class ConstructionStep:
    h: int
    join_partition: Partition
    r_h: int
    # parity per block of the step's join partition, indexed by block id
    block_parity: tuple[Vec, ...]


@dataclass(frozen=True)
class ConstructionTrace:
    mode: str
    steps: tuple[ConstructionStep, ...]

    @property
    def total_r(self) -> int:
        return sum(s.r_h for s in self.steps)

    @property
    def per_step_r(self) -> tuple[int, ...]:
        return tuple(s.r_h for s in self.steps)


@dataclass(frozen=True)
class Violation:
    h: int
    u: Vec
    v: Vec
    achieved: int
    required: int


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[Violation, ...]


class BudgetExceeded(Exception):
    """A construction step ran out of solver budget; carries the partial trace."""

    def __init__(self, result: SolveResult, trace: ConstructionTrace):
        super().__init__("solver budget exhausted during construction")
        self.result = result
        self.trace = trace


def verify_gfcpc(enc: SystematicEncoding, prob: Problem) -> VerificationReport:
    """Exhaustively check every cross-block pair against every level's distance."""
    if enc.space != prob.space:
        raise ShapeError(f"space mismatch: {enc.space} vs {prob.space}")
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
                    violations.append(
                        Violation(h + 1, u, v, d_tot, prob.distances[h])
                    )
    return VerificationReport(not violations, tuple(violations))


def _block_residual_matrix(
    q_h: Partition,
    d_h: int,
    cumulative: dict[Vec, Vec],
) -> RequirementMatrix:
    """Demands between blocks of q_h after crediting message and accrued parity distance."""
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
                    have = hamming_distance(u, v) + hamming_distance(
                        cumulative[u], cumulative[v]
                    )
                    need = max(need, d_h - have)
            need = max(need, 0)
            entries[a][b] = entries[b][a] = need
            levels[a][b] = levels[b][a] = 1
    return RequirementMatrix(reps, tuple(map(tuple, entries)), tuple(map(tuple, levels)))


def multi_step_construct(
    prob: Problem, budget: SearchBudget | None = None
) -> tuple[SystematicEncoding, ConstructionTrace]:
    """Build an encoding by upgrading protection level by level.

    Step 1 covers the join of all partitions at the smallest distance; step h
    appends parity, constant on blocks of the suffix join P_h v ... v P_H,
    until cross-block pairs reach cumulative distance d_h.
    """
    space = prob.space
    vectors = space.vectors()
    cumulative: dict[Vec, Vec] = {u: () for u in vectors}
    steps: list[ConstructionStep] = []
    for h in range(1, prob.H + 1):
        q_h = join_many(prob.partitions[h - 1 :])
        d_h = prob.distances[h - 1]
        mat = _block_residual_matrix(q_h, d_h, cumulative)
        if mat.is_zero():
            steps.append(ConstructionStep(h, q_h, 0, tuple(() for _ in q_h.blocks)))
            continue
        res = min_length_dcode(mat, space.q, budget)
        if not res.is_exact:
            raise BudgetExceeded(res, ConstructionTrace("block-constant", tuple(steps)))
        assert res.witness is not None
        block_parity = res.witness.parities
        for u in vectors:
            cumulative[u] = cumulative[u] + block_parity[q_h.block_of(u)]
        steps.append(ConstructionStep(h, q_h, res.n or 0, block_parity))
    total_r = len(next(iter(cumulative.values()))) if vectors else 0
    enc = SystematicEncoding(space, total_r, dict(cumulative))
    return enc, ConstructionTrace("block-constant", tuple(steps))


def group_code(
    prob: Problem, levels: Sequence[int], budget: SearchBudget | None = None
) -> tuple[Partition, SolveResult]:
    """One block-constant code protecting a group of levels (1-based indices).

    The code lives on the join of the group's partitions and meets the
    group's largest distance; returns that join and the solver result.
    """
    joined = join_many([prob.partitions[i - 1] for i in levels])
    d_a = max(prob.distances[i - 1] for i in levels)
    empty: dict[Vec, Vec] = {u: () for u in prob.space.enumerate()}
    mat = _block_residual_matrix(joined, d_a, empty)
    return joined, min_length_dcode(mat, prob.space.q, budget)


def grouped_construct(
    prob: Problem,
    grouping: Sequence[Sequence[int]],
    budget: SearchBudget | None = None,
) -> tuple[SystematicEncoding, tuple[int, ...]]:
    """Concatenate one join-partition code per group of protection levels.

    `grouping` is a set partition of {1..H} (1-based level indices). Each
    group A gets a code for the join of its partitions at max distance in A.
    Returns the encoding and the per-group redundancies (in canonical group
    order: sorted by smallest member).
    """
    groups = [tuple(sorted(set(g))) for g in grouping]
    flat = [i for g in groups for i in g]
    if sorted(flat) != list(range(1, prob.H + 1)):
        raise InputError(f"grouping {grouping!r} is not a partition of 1..{prob.H}")
    groups.sort(key=lambda g: g[0])
    space = prob.space
    vectors = space.vectors()
    cumulative: dict[Vec, Vec] = {u: () for u in vectors}
    per_group = []
    for g in groups:
        joined, res = group_code(prob, g, budget)
        if not res.is_exact:
            raise BudgetExceeded(res, ConstructionTrace("grouped", ()))
        assert res.witness is not None
        per_group.append(res.n or 0)
        for u in vectors:
            cumulative[u] = cumulative[u] + res.witness.parities[joined.block_of(u)]
    total_r = sum(per_group)
    return SystematicEncoding(space, total_r, dict(cumulative)), tuple(per_group)


def decode_block(
    enc: SystematicEncoding,
    prob: Problem,
    h: int,
    received: Vec,
    t: int | None = None,
) -> int | None:
    """Recover the level-h block of the transmitted message, or None on failure.

    Collects all codewords within t errors of the received word (t defaults
    to the level's guaranteed correction radius). Success requires a
    nonempty candidate set confined to a single block.
    """
    if not 1 <= h <= prob.H:
        raise InputError(f"level {h} out of range 1..{prob.H}")
    if len(received) != enc.n:
        raise ShapeError(f"received word has length {len(received)}, expected {enc.n}")
    radius = prob.t(h) if t is None else t
    part = prob.partitions[h - 1]
    blocks = set()
    found = False
    for u in enc.space.enumerate():
        if hamming_distance(enc.codeword(u), received) <= radius:
            found = True
            blocks.add(part.block_of(u))
            if len(blocks) > 1:
                return None
    return blocks.pop() if found else None


# ---------------------------------------------------------------------------
# File format: gfcpc-encoding v1


def write_encoding(enc: SystematicEncoding, out: TextIO) -> None:
    out.write(f"{ENCODING_MAGIC}\n")
    out.write(f"q {enc.space.q}\n")
    out.write(f"k {enc.space.k}\n")
    out.write(f"r {enc.r}\n")
    for u in enc.space.enumerate():
        p = enc.parity[u]
        ptext = "".join(str(s) for s in p)
        line = f"row {enc.space.render(u)} {ptext}".rstrip()
        out.write(line + "\n")


def encoding_to_text(enc: SystematicEncoding) -> str:
    buf = io.StringIO()
    write_encoding(enc, buf)
    return buf.getvalue()


def read_encoding(src: TextIO) -> SystematicEncoding:
    lines = src.read().splitlines()
    if not lines or lines[0].strip() != ENCODING_MAGIC:
        raise InputError(f"line 1: expected header {ENCODING_MAGIC!r}")
    header = {}
    for lineno, key in ((2, "q"), (3, "k"), (4, "r")):
        if lineno > len(lines):
            raise InputError(f"line {lineno}: expected '{key} <int>'")
        fields = lines[lineno - 1].split()
        if len(fields) != 2 or fields[0] != key:
            raise InputError(f"line {lineno}: expected '{key} <int>'")
        try:
            header[key] = int(fields[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected '{key} <int>'") from None
    space = Space(header["q"], header["k"])
    r = header["r"]
    if r < 0:
        raise InputError("line 4: r must be >= 0")
    parity: dict[Vec, Vec] = {}
    prev_rank = -1
    for lineno, line in enumerate(lines[4:], start=5):
        if not line.strip():
            continue
        fields = line.split()
        if fields[0] != "row" or len(fields) not in (2, 3):
            raise InputError(f"line {lineno}: expected 'row <message> <parity>'")
        u = space.parse(fields[1])
        if len(fields) == 2:
            if r != 0:
                raise InputError(f"line {lineno}: missing parity for r={r}")
            p: Vec = ()
        else:
            if len(fields[2]) != r:
                raise InputError(
                    f"line {lineno}: parity length {len(fields[2])}, expected {r}"
                )
            try:
                p = Space(space.q, r).parse(fields[2])
            except InputError as e:
                raise InputError(f"line {lineno}: parity {e}") from None
        if u in parity:
            raise InputError(f"line {lineno}: duplicate message {fields[1]}")
        rank = space.rank(u)
        if rank <= prev_rank:
            raise InputError(f"line {lineno}: messages must be in lexicographic order")
        prev_rank = rank
        parity[u] = p
    if len(parity) != space.size:
        missing = next(u for u in space.enumerate() if u not in parity)
        raise InputError(f"missing message row for {space.render(missing)}")
    return SystematicEncoding(space, r, parity)


def load_encoding(path: str | Path) -> SystematicEncoding:
    with open(path, encoding="utf-8") as fh:
        return read_encoding(fh)


def store_encoding(enc: SystematicEncoding, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_encoding(enc, fh)
