from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfcpc.errors import CapacityError, InputError, ShapeError
from gfcpc.space import Space, distance_matrix, hamming_distance, hamming_weight, neighbors

spaces = st.builds(Space, st.integers(2, 4), st.integers(1, 4))


def vec_strategy(space: Space):
    return st.tuples(*[st.integers(0, space.q - 1)] * space.k)


def test_bad_parameters():
    with pytest.raises(InputError):
        Space(1, 3)
    with pytest.raises(InputError):
        Space(2, 0)


def test_enumerate_is_lexicographic():
    space = Space(3, 2)
    vecs = space.vectors()
    assert len(vecs) == 9
    assert vecs[0] == (0, 0)
    assert vecs[1] == (0, 1)
    assert vecs[-1] == (2, 2)
    assert vecs == tuple(sorted(vecs))


def test_enumeration_cap():
    with pytest.raises(CapacityError):
        list(Space(10, 8).enumerate())


def test_enumeration_cap_on_a_huge_space():
    # q^k has more digits than int-to-str conversion allows by default
    with pytest.raises(CapacityError, match=r"2\^20000"):
        list(Space(2, 20000).enumerate())


@given(spaces, st.data())
def test_rank_unrank_roundtrip(space, data):
    u = data.draw(vec_strategy(space))
    assert space.unrank(space.rank(u)) == u
    assert space.rank(space.unrank(0)) == 0


def test_rank_matches_enumeration_order():
    space = Space(2, 3)
    for i, u in enumerate(space.enumerate()):
        assert space.rank(u) == i


@given(spaces, st.data())
def test_render_parse_roundtrip(space, data):
    u = data.draw(vec_strategy(space))
    assert space.parse(space.render(u)) == u


def test_parse_rejects_bad_text():
    space = Space(2, 3)
    with pytest.raises(InputError):
        space.parse("01")
    with pytest.raises(InputError):
        space.parse("012")
    with pytest.raises(InputError):
        space.parse("0a1")


@pytest.mark.parametrize("text", ["0²1", "0١1", "0１1"])
def test_parse_rejects_non_ascii_digits(text):
    # str.isdigit accepts these; only ASCII digits are symbols
    with pytest.raises(InputError, match="non-digit"):
        Space(2, 3).parse(text)


def test_validate_errors():
    space = Space(2, 2)
    with pytest.raises(ShapeError):
        space.validate((0, 1, 0))
    with pytest.raises(InputError):
        space.validate((0, 2))


@given(spaces, st.data())
def test_hamming_distance_metric(space, data):
    u = data.draw(vec_strategy(space))
    v = data.draw(vec_strategy(space))
    w = data.draw(vec_strategy(space))
    assert hamming_distance(u, v) == hamming_distance(v, u)
    assert hamming_distance(u, u) == 0
    assert (hamming_distance(u, v) == 0) == (u == v)
    assert hamming_distance(u, w) <= hamming_distance(u, v) + hamming_distance(v, w)


def test_hamming_distance_length_mismatch():
    with pytest.raises(ShapeError):
        hamming_distance((0, 1), (0, 1, 0))


@given(st.integers(0, 4), st.integers(2, 4), st.data())
def test_distance_matrix_matches_hamming_distance(n, q, data):
    # n = 0 covers zero-length words; lists may be empty on either side.
    words = st.lists(st.tuples(*[st.integers(0, q - 1)] * n), max_size=6)
    rows, cols = data.draw(words), data.draw(words)
    got = distance_matrix(rows, cols)
    assert got.shape == (len(rows), len(cols))
    assert got.tolist() == [[hamming_distance(u, v) for v in cols] for u in rows]
    square = distance_matrix(rows)
    assert square.shape == (len(rows), len(rows))
    assert square.tolist() == [[hamming_distance(u, v) for v in rows] for u in rows]


def test_distance_matrix_edges():
    assert distance_matrix([]).shape == (0, 0)
    assert distance_matrix([], [(0, 1)]).shape == (0, 1)
    assert distance_matrix([(), ()], []).shape == (2, 0)
    assert distance_matrix([(), ()]).tolist() == [[0, 0], [0, 0]]
    # symbols past any small integer type must not wrap or overflow
    assert distance_matrix([(300, 1), (44, 1), (300, 2)]).tolist() == [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
    with pytest.raises(ShapeError):
        distance_matrix([(0, 1), (0, 1, 0)])
    with pytest.raises(ShapeError):
        distance_matrix([(0, 1)], [(0,)])


def test_hamming_weight():
    assert hamming_weight((0, 0, 0)) == 0
    assert hamming_weight((0, 2, 1)) == 2


@given(spaces, st.data())
def test_neighbors_are_exactly_distance_one(space, data):
    u = data.draw(vec_strategy(space))
    nbrs = neighbors(space, u)
    assert len(nbrs) == space.k * (space.q - 1)
    assert len(set(nbrs)) == len(nbrs)
    for v in nbrs:
        assert hamming_distance(u, v) == 1


def test_neighbors_order():
    space = Space(3, 2)
    assert neighbors(space, (0, 1)) == [(1, 1), (2, 1), (0, 0), (0, 2)]
