from __future__ import annotations

import io
import random

import pytest

from gfcpc.codec import encoding_to_text, read_encoding
from gfcpc.drm import drm_to_text, gfcpc_drm, read_drm
from gfcpc.errors import InputError
from gfcpc.partition import (
    Partition,
    parse_partition_lines,
    partition_to_text,
    read_partition,
)
from gfcpc.solver import dcode_to_text, min_length_dcode
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
        again = read_partition(io.StringIO(partition_to_text(p)))
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
        parse_partition_lines(["wrong header"] + good[1:])
    broken = good[:3] + ["block 0 2"]
    with pytest.raises(InputError):
        parse_partition_lines(broken)
    with pytest.raises(InputError):
        parse_partition_lines(good[:-1])  # missing coverage


def test_drm_roundtrip():
    rng = random.Random(2)
    for _ in range(10):
        prob = random_problem(rng, q=rng.choice([2, 3]), k_max=2, h_max=2)
        mat = gfcpc_drm(prob, prob.space.vectors())
        text = drm_to_text(mat, prob.space)
        again = read_drm(io.StringIO(text), prob.space)
        assert again.messages == mat.messages
        assert again.entries == mat.entries


def test_drm_rejects_asymmetry():
    space = Space(2, 1)
    text = "gfcpc-drm v1\nm 2\n0 2\n1 0\nmsg 0 0\nmsg 1 1\n"
    with pytest.raises(InputError, match="symmetric"):
        read_drm(io.StringIO(text), space)


def test_drm_rejects_nonzero_diagonal():
    space = Space(2, 1)
    text = "gfcpc-drm v1\nm 2\n1 2\n2 0\nmsg 0 0\nmsg 1 1\n"
    with pytest.raises(InputError):
        read_drm(io.StringIO(text), space)


def test_encoding_roundtrip():
    rng = random.Random(3)
    from gfcpc.codec import multi_step_construct

    for _ in range(6):
        prob = random_problem(rng, q=rng.choice([2, 3]), k_max=2, h_max=2, d_max=4)
        enc, _ = multi_step_construct(prob)
        again = read_encoding(io.StringIO(encoding_to_text(enc)))
        assert again == enc


def test_encoding_zero_redundancy_rows():
    space = Space(2, 1)
    from gfcpc.codec import SystematicEncoding

    enc = SystematicEncoding(space, 0, {(0,): (), (1,): ()})
    text = encoding_to_text(enc)
    assert "row 0\n" in text and "row 1\n" in text
    assert read_encoding(io.StringIO(text)) == enc


def test_encoding_diagnostics():
    base = "gfcpc-encoding v1\nq 2\nk 1\nr 1\n"
    with pytest.raises(InputError, match="duplicate"):
        read_encoding(io.StringIO(base + "row 0 0\nrow 0 1\n"))
    with pytest.raises(InputError, match="order"):
        read_encoding(io.StringIO(base + "row 1 0\nrow 0 1\n"))
    with pytest.raises(InputError, match="missing"):
        read_encoding(io.StringIO(base + "row 0 0\n"))
    with pytest.raises(InputError, match="parity length"):
        read_encoding(io.StringIO(base + "row 0 00\nrow 1 11\n"))
    with pytest.raises(InputError, match="line 5: parity .*non-digit"):
        read_encoding(io.StringIO(base + "row 0 a\nrow 1 1\n"))
    with pytest.raises(InputError, match="line 6: parity .*out of range"):
        read_encoding(io.StringIO(base + "row 0 0\nrow 1 2\n"))
    with pytest.raises(InputError, match="line 1"):
        read_encoding(io.StringIO("nope\n"))


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
