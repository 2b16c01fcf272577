from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcpc.codec import multi_step_construct
from gfcpc.drm import canonicalize_problem, gfcpc_drm
from gfcpc.errors import InputError
from gfcpc.formats import (
    dcode_to_text,
    drm_to_text,
    encoding_to_text,
    load_problem_file,
    parse_drm,
    parse_encoding,
    parse_partition,
    partition_to_text,
)
from gfcpc.partition import Partition, from_function
from gfcpc.solver import min_length_dcode
from gfcpc.space import Space

from conftest import random_partition, random_problem


def _parts(space, *blocks_text):
    return Partition.from_blocks(
        space, [[space.parse(t) for t in b] for b in blocks_text]
    )


def test_partition_roundtrip():
    rng = random.Random(1)
    for _ in range(10):
        space = Space(rng.choice([2, 3]), rng.randint(1, 3))
        p = random_partition(rng, space)
        again = parse_partition(partition_to_text(p))
        assert again == p


def test_partition_text_shape():
    space = Space(2, 2)
    p = _parts(space, ["00", "01"], ["10", "11"])
    text = partition_to_text(p)
    lines = text.splitlines()
    assert lines[0] == "gfcpc-partition v1"
    assert lines[1] == "q 2"
    assert lines[2] == "k 2"
    assert lines[3].startswith("block ")


def test_partition_diagnostics_carry_line_numbers():
    good = partition_to_text(_parts(Space(2, 1), ["0"], ["1"])).splitlines()
    with pytest.raises(InputError, match="line 1"):
        parse_partition("\n".join(["wrong header"] + good[1:]))
    broken = good[:3] + ["block 0 2"]
    with pytest.raises(InputError):
        parse_partition("\n".join(broken))
    with pytest.raises(InputError):
        parse_partition("\n".join(good[:-1]))  # missing coverage


def test_drm_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        prob = random_problem(rng, q=rng.choice([2, 3]), k_max=2, h_max=2)
        mat = gfcpc_drm(prob, prob.space.vectors())
        text = drm_to_text(mat, prob.space)
        again = parse_drm(text, prob.space.q)
        assert again.messages == mat.messages
        assert again.entries == mat.entries


def test_drm_rejects_asymmetry():
    space = Space(2, 1)
    text = "gfcpc-drm v1\nm 2\n0 2\n1 0\nmsg 0 0\nmsg 1 1\n"
    with pytest.raises(InputError, match="symmetric"):
        parse_drm(text, space.q)


def test_drm_rejects_nonzero_diagonal():
    space = Space(2, 1)
    text = "gfcpc-drm v1\nm 2\n1 2\n2 0\nmsg 0 0\nmsg 1 1\n"
    with pytest.raises(InputError):
        parse_drm(text, space.q)


def test_encoding_roundtrip():
    rng = random.Random(3)
    from gfcpc.codec import multi_step_construct

    for _ in range(6):
        prob = random_problem(rng, q=rng.choice([2, 3]), k_max=2, h_max=2, d_max=4)
        enc, _ = multi_step_construct(prob)
        again = parse_encoding(encoding_to_text(enc))
        assert again == enc


def test_encoding_zero_redundancy_rows():
    space = Space(2, 1)
    from gfcpc.codec import SystematicEncoding

    enc = SystematicEncoding(space, 0, {(0,): (), (1,): ()})
    text = encoding_to_text(enc)
    assert "row 0\n" in text and "row 1\n" in text
    assert parse_encoding(text) == enc


def test_encoding_diagnostics():
    base = "gfcpc-encoding v1\nq 2\nk 1\nr 1\n"
    with pytest.raises(InputError, match="duplicate"):
        parse_encoding(base + "row 0 0\nrow 0 1\n")
    with pytest.raises(InputError, match="order"):
        parse_encoding(base + "row 1 0\nrow 0 1\n")
    with pytest.raises(InputError, match="missing"):
        parse_encoding(base + "row 0 0\n")
    with pytest.raises(InputError, match="parity length"):
        parse_encoding(base + "row 0 00\nrow 1 11\n")
    with pytest.raises(InputError, match="line 5: parity .*non-digit"):
        parse_encoding(base + "row 0 a\nrow 1 1\n")
    with pytest.raises(InputError, match="line 6: parity .*out of range"):
        parse_encoding(base + "row 0 0\nrow 1 2\n")
    with pytest.raises(InputError, match="line 1"):
        parse_encoding("nope\n")


def test_dcode_text_shape():
    rng = random.Random(4)
    prob = random_problem(rng, q=2, k_max=2, h_max=2, d_max=4)
    mat = gfcpc_drm(prob, prob.space.vectors())
    res = min_length_dcode(mat, 2)
    text = dcode_to_text(res.witness)
    lines = text.splitlines()
    assert lines[0] == "gfcpc-dcode v1"
    assert lines[1] == f"n {res.n}"
    assert len(lines) == 2 + mat.m
    for i, line in enumerate(lines[2:]):
        fields = line.split()
        assert fields[0] == "parity" and fields[1] == str(i)
        if res.n == 0:
            assert fields[2] == "-"
        else:
            assert len(fields[2]) == res.n


@pytest.mark.parametrize("k", [30, 10**10])
def test_header_space_too_large_to_enumerate(k):
    # k = 10**10 must be refused before q**k, a gigabyte-sized integer, is built
    for parse, text in (
        (parse_partition, f"gfcpc-partition v1\nq 3\nk {k}\n"),
        (parse_partition, f"gfcpc-partition v1\nq 3\nk {k}\n000 0\n"),
        (parse_encoding, f"gfcpc-encoding v1\nq 3\nk {k}\nr 0\n"),
    ):
        with pytest.raises(InputError, match=rf"^line 3: q\^k = 3\^{k} exceeds"):
            parse(text)


# Replacement tokens: header keys, record kinds, edge values, partition
# references that are valid, missing, a directory or binary, and odd digits.
TOKENS = [
    "", "0", "1", "2", "3", "-1", "11", "99", "00", "0x", "12", "²",
    "q", "k", "m", "r", "block", "row", "msg", "partition",
    "a.partition", "b.partition", "bin.partition", "missing.partition", ".",
]


@st.composite
def mutated(draw, text):
    """Drop, duplicate or swap lines, or replace one token, one to four times;
    in a few examples keep only the header instead, with k = 30 (a space too
    large to enumerate)."""
    lines = text.splitlines()
    if draw(st.integers(0, 19)) == 19:
        header = [line for line in lines if line.startswith("gfcpc-")
                  or line.split()[:1] in (["q"], ["k"], ["m"], ["r"])]
        return "".join("k 30\n" if line.startswith("k ") else line + "\n" for line in header)
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = lines[i].split() or [""]
            token = draw(st.one_of(
                st.sampled_from(TOKENS),
                st.text(st.characters(exclude_categories=("Cs",)), max_size=3),
            ))
            fields[draw(st.integers(0, len(fields) - 1))] = token
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def format_samples(tmp_path_factory):
    """Valid text of each read format, and a parser for each; the problem
    format is read from a directory that holds its partition files."""
    root = tmp_path_factory.mktemp("formats")
    space = Space(3, 2)
    a, b = from_function(space, sum), from_function(space, lambda u: u[0])
    (root / "a.partition").write_text(partition_to_text(a), encoding="utf-8")
    (root / "b.partition").write_text(partition_to_text(b), encoding="utf-8")
    (root / "bin.partition").write_bytes(b"\xff\xfe\x00")
    prob = canonicalize_problem([a, b], [3, 2])
    enc, _ = multi_step_construct(prob)

    def problem(text):
        (root / "problem.txt").write_text(text, encoding="utf-8")
        return load_problem_file(root / "problem.txt")

    problem_text = "gfcpc-problem v1\nq 3\nk 2\npartition a.partition 3\npartition b.partition 2\nmsg 00\nmsg 12\n"
    return {
        "partition": (partition_to_text(a), parse_partition),
        "problem": (problem_text, problem),
        "drm": (drm_to_text(gfcpc_drm(prob, space.vectors()[:4]), space), lambda t: parse_drm(t, 3)),
        "encoding": (encoding_to_text(enc), parse_encoding),
    }


@pytest.mark.parametrize("fmt", ["partition", "problem", "drm", "encoding"])
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_files_parse_or_raise_input_error(format_samples, fmt, data):
    text, parse = format_samples[fmt]
    parse(text)
    try:
        parse(data.draw(mutated(text)))
    except InputError:
        pass
