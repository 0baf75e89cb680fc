import math
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sisfit.errors import ValidationError
from sisfit.lattice import (
    coset_of,
    format_basis,
    make_dual_lattice,
    parse_basis,
)

from oracles import section


def _in_lattice(basis, v):
    """Exact rational membership test: v in basis @ Z^d."""
    d = basis.shape[0]
    b = [[Fraction(int(basis[i, j])) for j in range(d)] for i in range(d)]
    x = [Fraction(int(c)) for c in v]
    # solve b y = x by Gaussian elimination over Q
    aug = [row[:] + [x[i]] for i, row in enumerate(b)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [t / pv for t in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * c for a, c in zip(aug[r], aug[col])]
    return all(aug[i][d].denominator == 1 for i in range(d))


def test_mod2_line():
    lat = make_dual_lattice([[2]])
    assert lat.index == 2
    assert np.array_equal(section(lat), [[0], [1]])
    assert coset_of(np.array([7]), lat) == 1
    assert coset_of(np.array([-4]), lat) == 0


def test_diag_2_1():
    lat = make_dual_lattice(np.diag([2, 1]))
    assert lat.index == 2
    assert np.array_equal(section(lat), [[0, 0], [1, 0]])
    assert coset_of(np.array([3, 5]), lat) == 1


def test_skew_basis_against_membership_oracle():
    basis = np.array([[1, 1], [-1, 1]])
    lat = make_dual_lattice(basis)
    assert lat.index == 2
    reps = section(lat)
    assert tuple(reps[0]) == (0, 0)
    # brute-force residue classification of a box of Z^2 points
    for k in product(range(-4, 5), repeat=2):
        claimed = [
            sigma
            for sigma in range(lat.index)
            if _in_lattice(basis, np.array(k) - reps[sigma])
        ]
        assert len(claimed) == 1
        assert coset_of(np.array(k), lat) == claimed[0]


@pytest.mark.parametrize(
    "basis",
    [
        [[2]],
        [[3]],
        [[2, 0], [0, 1]],
        [[1, 1], [-1, 1]],
        [[2, 1], [0, 3]],
    ],
)
def test_partition_property(basis):
    basis = np.array(basis)
    lat = make_dual_lattice(basis)
    d, reps = lat.dim, section(lat)
    labels = set()
    for k in product(range(-10, 11), repeat=d):
        lab = coset_of(np.array(k), lat)
        assert 0 <= lab < lat.index
        labels.add(lab)
        # exactly one section element is congruent
        hits = [
            s
            for s in range(lat.index)
            if _in_lattice(basis, np.array(k) - reps[s])
        ]
        assert hits == [lab]
    assert len(labels) == lat.index


def test_section_self_labels():
    lat = make_dual_lattice([[2, 1], [0, 3]])
    reps = section(lat)
    for i in range(lat.index):
        assert coset_of(reps[i], lat) == i


def test_section_sorted_unique():
    lat = make_dual_lattice([[2, 0], [0, 3]])
    rows = [tuple(int(x) for x in r) for r in section(lat)]
    assert rows == sorted(set(rows))
    assert lat.index == 6


def test_rejections():
    with pytest.raises(ValidationError):
        make_dual_lattice([[1, 0], [2, 0]])  # singular
    with pytest.raises(ValidationError):
        make_dual_lattice([[0.5]])  # not integer
    with pytest.raises(ValidationError):
        make_dual_lattice([[1, 2, 3]])  # not square
    lat = make_dual_lattice([[2]])
    with pytest.raises(ValidationError):
        coset_of(np.array([1, 2]), lat)  # wrong dimension
    with pytest.raises(ValidationError):
        coset_of(np.array([0.5]), lat)  # not an integer point


def test_index_above_the_bound_is_refused_before_the_section():
    assert section(make_dual_lattice([[2**20]])).shape == (2**20, 1)
    for basis, index in (([[2**20 + 1]], 2**20 + 1), ([[1024, 0], [0, 1025]], 1024 * 1025),
                         ([[10**10]], 10**10), ([[3**39, 0], [0, 3**39]], 3**78)):
        with pytest.raises(ValidationError, match=f"^lattice basis has {index} cosets, more than 1048576$"):
            make_dual_lattice(basis)


def test_the_section_is_built_when_first_read():
    # at the 2^20-coset cap a section is 16 MiB; no fit needs one, and a
    # lattice keeps none
    tracemalloc.start()
    try:
        lat = make_dual_lattice([[1024, 0], [0, 1024]])
        built = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 2**20
    reps = section(lat)
    assert reps.shape == (2**20, 2)
    assert reps[[0, 1, 1024, -1]].tolist() == [[0, 0], [0, 1], [1, 0], [1023, 1023]]


def test_float_integer_inputs_accepted():
    lat = make_dual_lattice(np.array([[2.0]]))
    assert lat.index == 2
    assert coset_of(np.array([3.0]), lat) == 1


def test_basis_text_round_trip():
    b = parse_basis("2 0;0 1")
    assert np.array_equal(b, [[2, 0], [0, 1]])
    assert format_basis(b) == "2 0;0 1"
    assert np.array_equal(parse_basis(format_basis(np.array([[1, 1], [-1, 1]]))), [[1, 1], [-1, 1]])
    with pytest.raises(ValidationError):
        parse_basis("1 2;3")
    with pytest.raises(ValidationError):
        parse_basis("a b;c d")
    with pytest.raises(ValidationError):
        parse_basis("")


def test_basis_entries_take_the_int64_range_and_refuse_one_beyond():
    top, bottom = 2**63 - 1, -(2**63)
    assert parse_basis(f"{top}").tolist() == [[top]]
    assert parse_basis(f"2 {bottom};0 1").tolist() == [[2, bottom], [0, 1]]
    for text, entry in ((f"{top + 1}", top + 1), (f"2 0;{bottom - 1} 1", bottom - 1),
                        ("99999999999999999999", 99999999999999999999)):
        with pytest.raises(ValidationError, match=f"^lattice basis entry {entry} lies outside the int64 range$"):
            parse_basis(text)


def test_lattice_equality():
    a = make_dual_lattice([[2]])
    b = make_dual_lattice([[2]])
    c = make_dual_lattice([[3]])
    assert a == b
    assert a != c


@st.composite
def _bases(draw):
    """Nonsingular integer bases, d = 1..3, |det| <= 64."""
    d = draw(st.integers(1, 3))
    basis = np.array(draw(st.lists(st.integers(-4, 4), min_size=d * d, max_size=d * d))).reshape(d, d)
    det = round(float(np.linalg.det(basis)))  # exact for entries this small
    assume(det != 0 and abs(det) <= 64)
    return basis


@given(basis=_bases(), data=st.data())
def test_coset_of_arrays_match_vectors_and_membership(basis, data):
    lat = make_dual_lattice(basis)
    d = lat.dim
    vec = st.lists(st.integers(-40, 40), min_size=d, max_size=d)
    pts = np.array(data.draw(st.lists(vec, min_size=1, max_size=12)), dtype=np.int64)
    labels = coset_of(pts, lat)
    assert labels.shape == pts.shape[:1] and labels.dtype == np.int64
    singles, reps = [coset_of(p, lat) for p in pts], section(lat)
    assert all(type(lab) is int for lab in singles)
    assert labels.tolist() == singles
    for p, lab in zip(pts, singles):
        assert _in_lattice(basis, p - reps[lab])
    # adding a lattice vector B z keeps every label
    z = np.array(data.draw(vec))
    shifted = pts + basis @ z
    assert np.array_equal(coset_of(shifted, lat), labels)
    stacked = coset_of(np.stack([pts, shifted]), lat)
    assert stacked.shape == (2, len(pts)) and np.array_equal(stacked, [labels, labels])
    assert coset_of(np.zeros((0, d), dtype=np.int64), lat).shape == (0,)
    for extreme in (np.iinfo(np.int64).max, np.iinfo(np.int64).min):
        with pytest.raises(ValidationError, match="too large"):
            coset_of(np.full((2, d), extreme), lat)


@pytest.mark.parametrize("basis", [[[2]], [[-3]], [[2, 0], [0, 1]], [[2, 1], [0, 3]], [[1, 2, 0], [0, 2, 1], [3, 0, 1]]])
def test_coset_of_takes_the_limit_and_refuses_one_beyond_in_any_coordinate(basis):
    lat = make_dual_lattice(basis)
    d = lat.dim
    limit = np.iinfo(np.int64).max // math.prod(1 + int(np.abs(lat.hermite[:, i]).max()) for i in range(d))
    for c in range(d):
        for sign in (1, -1):
            v = np.zeros(d, dtype=np.int64)
            v[c] = sign * limit
            lab = coset_of(v, lat)
            assert _in_lattice(lat.basis, v - section(lat)[lab])
            assert coset_of(np.stack([v, -v, v]), lat).tolist() == [lab, coset_of(-v, lat), lab]
            v[c] += sign
            with pytest.raises(ValidationError, match=rf"too large to reduce in int64 \(limit {limit}\)"):
                coset_of(v, lat)
            with pytest.raises(ValidationError, match=rf"^integer vector {re.escape(str(tuple(v.tolist())))} "):
                coset_of(np.stack([np.zeros(d, dtype=np.int64), v]), lat)
