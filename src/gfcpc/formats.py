"""The five versioned text formats, each with one writer and one parser.

A file is a magic line, then ``key <int>`` header lines in a fixed order,
then one record per nonblank line. Every malformed header or record raises
:class:`InputError` with a message starting ``line N:``; only errors about the
file as a whole (a missing vector, row or partition) carry no line number.

The problem format references partition files by path, so it is the one
format read from a path (:func:`load_problem_file`); the dcode format is
written and never read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Container

from .codec import SystematicEncoding
from .drm import Problem, RequirementMatrix, canonicalize_problem
from .errors import InputError
from .partition import Partition
from .solver import DcodeWitness
from .space import Space, Vec

PARTITION_MAGIC = "gfcpc-partition v1"
PROBLEM_MAGIC = "gfcpc-problem v1"
DRM_MAGIC = "gfcpc-drm v1"
DCODE_MAGIC = "gfcpc-dcode v1"
ENCODING_MAGIC = "gfcpc-encoding v1"

_HEADER_MIN = {"q": 2, "k": 1, "r": 0, "m": 0}

_Record = tuple[int, list[str]]


def _read(text: str, magic: str, header: tuple[str, ...]) -> tuple[dict[str, int], list[_Record]]:
    """Check the magic and header lines; return the header and the numbered records."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != magic:
        raise InputError(f"line 1: expected header {magic!r}")
    values: dict[str, int] = {}
    for lineno, key in enumerate(header, start=2):
        fields = lines[lineno - 1].split() if lineno <= len(lines) else []
        try:
            if len(fields) != 2 or fields[0] != key:
                raise ValueError
            value = int(fields[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected '{key} <int>'") from None
        if value < _HEADER_MIN[key]:
            raise InputError(f"line {lineno}: {key} must be >= {_HEADER_MIN[key]}, got {value}")
        if key == "q" and value > 10:
            raise InputError(f"line {lineno}: q must be <= 10 (one digit per symbol), got {value}")
        values[key] = value
    first = len(header) + 2
    records = [
        (lineno, fields)
        for lineno, line in enumerate(lines[first - 1 :], start=first)
        if (fields := line.split())
    ]
    return values, records


def _vec(space: Space, text: str, lineno: int, what: str = "") -> Vec:
    try:
        return space.parse(text)
    except InputError as e:
        raise InputError(f"line {lineno}: {what}{e}") from None


def _missing(space: Space, seen: Container[Vec]) -> str:
    """Text of the first vector of the space absent from `seen`."""
    return space.render(next(u for u in space.enumerate() if u not in seen))


# ---------------------------------------------------------------------------
# gfcpc-partition v1


def partition_to_text(p: Partition) -> str:
    lines = [PARTITION_MAGIC, f"q {p.space.q}", f"k {p.space.k}"]
    for i, b in enumerate(p.blocks):
        vecs = sorted(b, key=p.space.rank)
        lines.append(f"block {p.block_name(i)} " + " ".join(p.space.render(u) for u in vecs))
    return "\n".join(lines) + "\n"


def parse_partition(text: str) -> Partition:
    head, records = _read(text, PARTITION_MAGIC, ("q", "k"))
    space = Space(head["q"], head["k"])
    seen: dict[Vec, int] = {}
    blocks: list[list[Vec]] = []
    for lineno, fields in records:
        if fields[0] != "block" or len(fields) < 3:
            raise InputError(f"line {lineno}: expected 'block <name> <vec> ...', got {' '.join(fields)!r}")
        block = []
        for word in fields[2:]:
            u = _vec(space, word, lineno)
            if u in seen:
                raise InputError(f"line {lineno}: duplicate vector {word} (also on line {seen[u]})")
            seen[u] = lineno
            block.append(u)
        blocks.append(block)
    if len(seen) != space.size:
        raise InputError(f"missing vector {_missing(space, seen)} (space has {space.size} vectors)")
    return Partition.from_blocks(space, blocks)


# ---------------------------------------------------------------------------
# gfcpc-problem v1


def load_problem_file(path: str | Path) -> tuple[Problem, list[Vec] | None]:
    """Parse a problem file; partition paths resolve relative to it.

    Returns the canonicalized problem and the optional message subset.
    """
    path = Path(path)
    head, records = _read(path.read_text(encoding="utf-8"), PROBLEM_MAGIC, ("q", "k"))
    space = Space(head["q"], head["k"])
    partitions: list[Partition] = []
    distances: list[int] = []
    msgs: list[Vec] = []
    for lineno, fields in records:
        if fields[0] == "partition":
            if len(fields) != 3:
                raise InputError(f"line {lineno}: expected 'partition <path> <distance>'")
            try:
                part = parse_partition((path.parent / fields[1]).read_text(encoding="utf-8"))
            # ValueError: not UTF-8, or a NUL in the path
            except (OSError, ValueError, InputError) as e:
                raise InputError(f"line {lineno}: partition {fields[1]}: {e}") from None
            if part.space != space:
                raise InputError(
                    f"line {lineno}: partition space {part.space} does not match problem space {space}"
                )
            if not fields[2].isdecimal() or int(fields[2]) < 1:
                raise InputError(f"line {lineno}: bad distance {fields[2]!r}")
            distances.append(int(fields[2]))
            partitions.append(part)
        elif fields[0] == "msg":
            if len(fields) != 2:
                raise InputError(f"line {lineno}: expected 'msg <vec>'")
            u = _vec(space, fields[1], lineno)
            if u in msgs:
                raise InputError(f"line {lineno}: duplicate message {fields[1]}")
            msgs.append(u)
        else:
            raise InputError(f"line {lineno}: unknown record {fields[0]!r}")
    if not partitions:
        raise InputError("a problem file needs at least one partition line")
    return canonicalize_problem(partitions, distances), (msgs or None)


# ---------------------------------------------------------------------------
# gfcpc-drm v1


def drm_to_text(mat: RequirementMatrix, space: Space) -> str:
    lines = [DRM_MAGIC, f"m {mat.m}"]
    lines += [" ".join(str(e) for e in row) for row in mat.entries]
    lines += [f"msg {i} {space.render(u)}" for i, u in enumerate(mat.messages)]
    return "\n".join(lines) + "\n"


def parse_drm(text: str, q: int) -> RequirementMatrix:
    """Parse a matrix dump over alphabet size q; k is the length of the first message."""
    head, records = _read(text, DRM_MAGIC, ("m",))
    m = head["m"]
    if len(records) != 2 * m:
        raise InputError(f"expected {2 + 2 * m} lines for m={m}, got {2 + len(records)}")
    entries = []
    for lineno, fields in records[:m]:
        try:
            row = tuple(int(x) for x in fields)
        except ValueError:
            raise InputError(f"line {lineno}: non-integer matrix entry") from None
        if len(row) != m:
            raise InputError(f"line {lineno}: expected {m} entries, got {len(row)}")
        if any(e < 0 for e in row):
            raise InputError(f"line {lineno}: negative entry")
        entries.append(row)
    # the dump does not carry k: every message is as long as the first one
    space = Space(q, len(records[m][1][-1]) if m else 1)
    messages: list[Vec] = []
    for lineno, fields in records[m:]:
        if len(fields) != 3 or fields[0] != "msg" or fields[1] != str(len(messages)):
            raise InputError(f"line {lineno}: expected 'msg {len(messages)} <vec>'")
        messages.append(_vec(space, fields[2], lineno))
    for i in range(m):
        for j in range(m):
            if entries[i][j] != entries[j][i]:
                raise InputError(f"matrix not symmetric at ({i}, {j})")
        if entries[i][i] != 0:
            raise InputError(f"nonzero diagonal at ({i}, {i})")
    levels = tuple(tuple(None for _ in range(m)) for _ in range(m))
    return RequirementMatrix(tuple(messages), tuple(entries), levels)


# ---------------------------------------------------------------------------
# gfcpc-dcode v1


def dcode_to_text(witness: DcodeWitness) -> str:
    lines = [DCODE_MAGIC, f"n {witness.length}"]
    for i, p in enumerate(witness.parities):
        text = "".join(str(s) for s in p) if p else "-"
        lines.append(f"parity {i} {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gfcpc-encoding v1


def encoding_to_text(enc: SystematicEncoding) -> str:
    lines = [ENCODING_MAGIC, f"q {enc.space.q}", f"k {enc.space.k}", f"r {enc.r}"]
    for u in enc.space.enumerate():
        ptext = "".join(str(s) for s in enc.parity[u])
        lines.append(f"row {enc.space.render(u)} {ptext}".rstrip())
    return "\n".join(lines) + "\n"


def parse_encoding(text: str) -> SystematicEncoding:
    head, records = _read(text, ENCODING_MAGIC, ("q", "k", "r"))
    space, r = Space(head["q"], head["k"]), head["r"]
    parity: dict[Vec, Vec] = {}
    prev_rank = -1
    for lineno, fields in records:
        if fields[0] != "row" or len(fields) not in (2, 3):
            raise InputError(f"line {lineno}: expected 'row <message> <parity>'")
        u = _vec(space, fields[1], lineno)
        ptext = fields[2] if len(fields) == 3 else ""
        if len(ptext) != r:
            raise InputError(f"line {lineno}: parity length {len(ptext)}, expected {r}")
        p = _vec(Space(space.q, r), ptext, lineno, "parity ") if r else ()
        if u in parity:
            raise InputError(f"line {lineno}: duplicate message {fields[1]}")
        rank = space.rank(u)
        if rank <= prev_rank:
            raise InputError(f"line {lineno}: messages must be in lexicographic order")
        prev_rank = rank
        parity[u] = p
    if len(parity) != space.size:
        raise InputError(f"missing message row for {_missing(space, parity)}")
    return SystematicEncoding(space, r, parity)
