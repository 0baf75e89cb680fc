import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sisfit
from sisfit.discrete import (
    BRUTE_FORCE_GUARD,
    DiscreteDataset,
    DiscreteModel,
    DiscretePartition,
    _block_columns,
    _read_sequences,
    _unique_rows,
    brute_force_optimal,
    error_discrete,
    fit_discrete,
    parse_discrete_dataset,
    parse_partition,
    write_discrete_sequences,
)
from sisfit.errors import ValidationError
from sisfit.lattice import make_dual_lattice
from sisfit.sis import _gramians
from sisfit.storage import load_model, save_model
from sisfit.verify import verify_model

from oracles import projection_residual


def delta_pair():
    """a_1 = delta_0, a_2 = delta_1 on the line."""
    return DiscreteDataset.from_sequences(1, [{(0,): 1.0}, {(1,): 1.0}])


def parity_partition():
    return DiscretePartition.from_lattice(make_dual_lattice([[2]]))


def random_instance(rng, m=3, npts=8, dim=1):
    pts = rng.choice(np.arange(-10, 11), size=(npts, dim), replace=False)
    seqs = []
    for _ in range(m):
        vals = rng.standard_normal(npts) + 1j * rng.standard_normal(npts)
        keep = rng.random(npts) < 0.8
        seqs.append({tuple(int(x) for x in p): complex(v) for p, v, k in zip(pts, vals, keep) if k})
    return DiscreteDataset.from_sequences(dim, seqs)


def test_dataset_construction():
    ds = delta_pair()
    assert ds.m == 2 and ds.n_points == 2 and ds.dim == 1
    assert np.array_equal(ds.support, [[0], [1]])
    assert np.array_equal(ds.values, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(ds.energies(), [1.0, 1.0])

    # pairs-list input form
    same = DiscreteDataset.from_sequences(1, [[((0,), 1.0)], [((1,), 1.0)]])
    assert np.array_equal(same.values, ds.values)

    with pytest.raises(ValidationError, match="duplicate"):
        DiscreteDataset.from_sequences(1, [[((0,), 1.0), ((0,), 2.0)]])
    with pytest.raises(ValidationError, match="dimension"):
        DiscreteDataset.from_sequences(2, [{(0,): 1.0}])
    with pytest.raises(ValidationError):
        DiscreteDataset.from_sequences(1, [])

    empty = DiscreteDataset.from_sequences(1, [{}])
    assert empty.n_points == 1  # parked at the origin
    assert np.all(empty.values == 0)


def test_from_sequences_rejects_positions_beyond_int64():
    with pytest.raises(ValidationError, match=r"sequence 0: position \(100000000000000000000,\) outside the int64 range"):
        DiscreteDataset.from_sequences(1, [{(10**20,): 1.0}])
    with pytest.raises(ValidationError, match="int64"):
        DiscreteDataset.from_sequences(2, [{(0, 0): 1.0}, {(0, -(2**63) - 1): 1.0}])


def test_partition_positions_beyond_int64_are_refused():
    for key in ((10**20,), (2**63,), (0, -(2**63) - 1)):
        with pytest.raises(ValidationError, match=rf"^position {re.escape(str(key))} outside the int64 range$"):
            DiscretePartition.from_mapping(len(key), {key: "far", (0,) * len(key): "near"})
    edge = ((2**63 - 1,), (-(2**63),))
    assert list(DiscretePartition.from_mapping(1, dict.fromkeys(edge, "a")).mapping) == list(edge)


def test_block_gramian_matches_naive(rng):
    ds = random_instance(rng, m=3)
    part = parity_partition()
    # the m x m Gramian of each block, as the discrete fit forms it
    grams = _gramians(ds.values[None], _block_columns(ds, part), [3, 3])[3][0]
    for label in (0, 1):
        got = grams[part.labels.index(label)]
        expect = np.zeros((3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                for p, pos in enumerate(ds.support):
                    if int(pos[0]) % 2 == label:
                        expect[i, j] += ds.values[i, p] * np.conj(ds.values[j, p])
        assert np.allclose(got, expect, atol=1e-12)


def test_single_block_is_classical_tail(rng):
    ds = random_instance(rng, m=3)
    part = DiscretePartition.from_lattice(make_dual_lattice([[1]]))
    gm = ds.values @ ds.values.conj().T
    lam = np.linalg.eigvalsh((gm + gm.conj().T) / 2.0)[::-1]
    for rank in (1, 2, 3):
        assert error_discrete(ds, part, rank) == pytest.approx(
            float(lam[rank:].sum()), rel=1e-9, abs=1e-12
        )


def test_delta_pair_golden():
    ds = delta_pair()
    part = parity_partition()
    model = fit_discrete(ds, part, 1)
    assert model.error == pytest.approx(1.0, abs=1e-12)
    # tie between the two blocks broken toward the even block
    assert model.allocation == [1, 0]
    assert model.selected[0][1] == 0  # home label
    # q_1 = delta_0
    assert np.allclose(model.generators[0], [1.0, 0.0], atol=1e-12)

    best_err, best_alloc = brute_force_optimal(ds, part, 1)
    assert best_err == pytest.approx(1.0, abs=1e-12)
    assert sum(best_alloc) == 1


def test_single_sequence_spread_over_blocks():
    ds = DiscreteDataset.from_sequences(1, [{(0,): 1.0, (1,): 2.0, (3,): 1.0}])
    part = parity_partition()
    # two blocks carry energy; rank 2 captures everything
    assert error_discrete(ds, part, 2) <= 1e-12
    assert error_discrete(ds, part, 0) == pytest.approx(6.0, rel=1e-12)


def test_error_conventions(rng):
    ds = random_instance(rng, m=2)
    part = parity_partition()
    assert error_discrete(ds, part, 4) <= 1e-12  # rank >= kappa * m
    assert error_discrete(ds, part, 0) == pytest.approx(float(ds.energies().sum()), rel=1e-10)
    model = fit_discrete(ds, part, 2)
    assert error_discrete(ds, part, 2) == model.error


def test_greedy_matches_oracle(rng):
    for trial in range(20):
        m = int(rng.integers(1, 4))
        ds = random_instance(rng, m=m, npts=int(rng.integers(2, 10)))
        basis = int(rng.integers(1, 4))
        part = DiscretePartition.from_lattice(make_dual_lattice([[basis]]))
        rank = int(rng.integers(0, 5))
        err = error_discrete(ds, part, rank)
        best_err, _ = brute_force_optimal(ds, part, rank)
        assert err == best_err or abs(err - best_err) <= 1e-12


def test_oracle_single_block(rng):
    ds = random_instance(rng, m=2)
    part = DiscretePartition.from_lattice(make_dual_lattice([[1]]))
    best_err, best_alloc = brute_force_optimal(ds, part, 2)
    assert best_alloc == (2,)
    assert best_err == error_discrete(ds, part, 2)


def test_oracle_guard():
    mapping = {(i,): f"b{i}" for i in range(7)}
    part = DiscretePartition.from_mapping(1, mapping)
    ds = DiscreteDataset.from_sequences(1, [{(i,): 1.0 for i in range(7)}])
    assert (10) ** 7 > BRUTE_FORCE_GUARD
    with pytest.raises(ValidationError, match="guard"):
        brute_force_optimal(ds, part, 9)


def test_oracle_guard_of_a_count_too_long_to_print():
    # 2^15000 has more digits than int-to-str converts; the guard must
    # still refuse it with its own message
    ds = DiscreteDataset.from_sequences(1, [{(i,): 1.0 for i in range(5)}])
    part = DiscretePartition.from_lattice(make_dual_lattice([[15000]]))
    with pytest.raises(ValidationError, match=r"guard") as exc:
        brute_force_optimal(ds, part, 1)
    assert "2^15000 allocations" in str(exc.value)


def test_prefix_property(rng):
    ds = random_instance(rng, m=3)
    part = parity_partition()
    model = fit_discrete(ds, part, 3)
    per_block = {}
    for lam, label, j in model.selected:
        per_block.setdefault(label, []).append(j)
    for ranks in per_block.values():
        assert sorted(ranks) == list(range(len(ranks)))


def test_generator_orthonormality_and_block_support(rng):
    ds = random_instance(rng, m=3)
    part = parity_partition()
    model = fit_discrete(ds, part, 4)
    gens = model.generators
    nz = np.flatnonzero(np.any(gens != 0, axis=1))
    gram = gens[nz] @ gens[nz].conj().T
    assert np.abs(gram - np.eye(nz.size)).max() <= 1e-10
    for s in nz:
        blocks = {int(model.support[i, 0]) % 2 for i in np.flatnonzero(gens[s] != 0)}
        assert len(blocks) == 1


def test_residual_identity_via_projection(rng):
    ds = random_instance(rng, m=3)
    part = parity_partition()
    model = fit_discrete(ds, part, 2)
    resid = projection_residual(ds.values, model.generators)
    energy = float(ds.energies().sum())
    assert abs(resid - model.error) <= 1e-9 * (1.0 + energy)


def test_explicit_partition_labels():
    mapping = {(0,): "left", (1,): "right", (2,): "left"}
    part = DiscretePartition.from_mapping(1, mapping)
    assert part.labels == ["left", "right"]
    assert part._block_indices(np.array([[0], [1], [5]])).tolist() == [0, 1, -1]
    with pytest.raises(ValidationError, match="not covered"):
        fit_discrete(DiscreteDataset.from_sequences(1, [{(5,): 1.0}]), part, 1)
    with pytest.raises(ValidationError):
        DiscretePartition.from_mapping(1, {})

    ds = DiscreteDataset.from_sequences(1, [{(0,): 1.0, (1,): 1.0, (2,): 1.0}])
    model = fit_discrete(ds, part, 1)
    # "left" block holds energy 2, "right" holds 1
    assert model.error == pytest.approx(1.0, abs=1e-12)
    assert model.allocation == [1, 0]


_UNSTORABLE = {"a,b": "holds a comma or a line break", "a\nb": "holds a comma or a line break",
               "a\rb": "holds a comma or a line break", "a\udcff": "is not encodable as UTF-8"}


@pytest.mark.parametrize("label", list(_UNSTORABLE))
def test_a_label_selected_csv_cannot_hold_is_refused_before_any_file(tmp_path, label):
    part = DiscretePartition.from_mapping(1, {(0,): label, (1,): "plain"})
    model = fit_discrete(DiscreteDataset.from_sequences(1, [{(0,): 2.0, (1,): 1.0}]), part, 1)
    with pytest.raises(ValidationError, match=f"^partition label {re.escape(repr(label))} {_UNSTORABLE[label]}, "
                                              f"which selected.csv cannot store$"):
        save_model(model, tmp_path)
    assert not any(tmp_path.iterdir())


def test_two_labels_of_the_same_text_are_refused_before_any_file(tmp_path):
    # 1 and "1" do not sort together: the labels are sorted by their text,
    # ties in the order first seen, and selected.csv, which names a label
    # by its text, could not tell them apart
    part = DiscretePartition.from_mapping(1, {(0,): 1, (1,): "1"})
    assert part.labels == [1, "1"]
    model = fit_discrete(DiscreteDataset.from_sequences(1, [{(0,): 2.0}, {(1,): 1.0}]), part, 2)
    assert model.allocation == [1, 1]
    with pytest.raises(ValidationError, match="^partition labels 1 and '1' both read '1', "
                                              "which selected.csv cannot tell apart$"):
        save_model(model, tmp_path)
    assert not any(tmp_path.iterdir())


def test_labels_of_the_same_text_keep_their_first_seen_order_under_every_hash_seed():
    # a set orders 1 and "1" by the string hash, which PYTHONHASHSEED
    # changes from process to process
    code = "from sisfit.discrete import DiscretePartition as P; print(P.from_mapping(1, {(0,): 1, (1,): '1'}).labels)"
    env = dict(os.environ, PYTHONPATH=str(Path(sisfit.__file__).resolve().parents[1]))
    for seed in range(8):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(env, PYTHONHASHSEED=str(seed)))
        assert (res.stdout, res.stderr) == ("[1, '1']\n", "")


def test_a_label_with_inner_spaces_round_trips(tmp_path):
    part = DiscretePartition.from_mapping(1, {(0,): "left  block", (1,): " right\tblock "})
    ds = DiscreteDataset.from_sequences(1, [{(0,): 2.0, (1,): 1.0}, {(1,): 3.0}])
    model = fit_discrete(ds, part, 2)
    save_model(model, tmp_path / "m")
    back = load_model(tmp_path / "m")
    assert [rec[1] for rec in model.selected] == [" right\tblock ", "left  block"]
    assert back.labels == model.labels and back.selected == model.selected
    assert verify_model(back, ds, part).passed


def test_dataset_text_round_trip(tmp_path, rng):
    ds = random_instance(rng, m=2, npts=6)
    path = tmp_path / "seqs.txt"
    write_discrete_sequences(ds.support, ds.values, path)
    back = parse_discrete_dataset(path)
    assert back.dim == ds.dim
    # the written support may shrink (zeros are skipped); compare as mappings
    orig = {
        (j, tuple(int(x) for x in ds.support[i])): ds.values[j, i]
        for j in range(ds.m)
        for i in range(ds.n_points)
        if ds.values[j, i] != 0
    }
    got = {
        (j, tuple(int(x) for x in back.support[i])): back.values[j, i]
        for j in range(back.m)
        for i in range(back.n_points)
        if back.values[j, i] != 0
    }
    assert got == orig


def test_three_hundred_sequences_round_trip_and_fit_through_the_cli(tmp_path, rng):
    # 300 sequences on 5 support points: every block Gramian is solved on
    # its column side
    from test_cli import run_cli

    ds = random_instance(rng, m=300, npts=5)
    path = tmp_path / "seqs.txt"
    write_discrete_sequences(ds.support, ds.values, path)
    back = parse_discrete_dataset(path)
    assert back.m == 300
    assert back.support.tobytes() == ds.support.tobytes()
    assert back.values.tobytes() == ds.values.tobytes()
    (tmp_path / "part.txt").write_text("lattice: 2\n")
    out = tmp_path / "model"
    res = run_cli("fit", "--regime", "discrete", "--data", path, "--partition", tmp_path / "part.txt",
                  "--rank", 3, "--out", out)
    assert res.returncode == 0, res.stderr
    model = fit_discrete(back, parse_partition(tmp_path / "part.txt", 1), 3)
    assert f"error: {model.error!r}\n" in res.stdout
    res = run_cli("verify", "--model", out, "--data", path)
    assert res.returncode == 0 and "result: pass" in res.stdout, res.stdout + res.stderr


def test_parse_dataset_errors(tmp_path):
    p = tmp_path / "bad.txt"
    with pytest.raises(ValidationError, match="not found"):
        parse_discrete_dataset(p)
    p.write_text("0,0\n")
    with pytest.raises(ValidationError, match="columns"):
        parse_discrete_dataset(p)
    p.write_text("0,0,1.0,0.0\n0,1,2,1.0,0.0\n")
    with pytest.raises(ValidationError, match="inconsistent"):
        parse_discrete_dataset(p)
    p.write_text("0,0,1.0,0.0\n0,0,2.0,0.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_discrete_dataset(p)
    p.write_text("-1,0,1.0,0.0\n")
    with pytest.raises(ValidationError, match="nonnegative"):
        parse_discrete_dataset(p)
    p.write_text("# only comments\n")
    with pytest.raises(ValidationError, match="no data"):
        parse_discrete_dataset(p)
    p.write_text("0,0,nan,0.0\n")
    with pytest.raises(ValidationError, match="non-finite"):
        parse_discrete_dataset(p)


def _sequences_or_error(read, path):
    """The dimension and the support and value bits of ``read(path)``, or
    the text of the ValidationError it raises."""
    try:
        ds = read(path)
    except ValidationError as exc:
        return str(exc)
    return ds.dim, ds.support.tobytes(), ds.values.view(np.uint64).tobytes()


# (file bytes, the dimension its first data line sets, a message the read raises or None)
_FIRST_LINES = [
    # first lines of 2 to 6 columns: j, k - 3 positions, re, im (the last k of them)
    *((",".join((["0"] + ["1"] * (k - 3) + ["1.5", "-0.0"])[-k:]).encode() + b"\n"
       + ",".join((["1"] + ["-2"] * (k - 3) + ["5e-324", "2.0"])[-k:]).encode() + b"\n", max(k - 3, 1),
       None if k > 3 else f":1: inconsistent column count: expected 4 columns, got {k}") for k in range(2, 7)),
    (b"# j,n_1,n_2,re,im\n0,1,2,1.5,0.0\n", 2, None),
    (b"\n  \n0,1,2,3,1.5,0.0\n1,0,0,0,1.0,2.0\n", 3, None),
    (b"0,1.5,0.0\n0,1,2,1.5,0.0\n", 1, ":1: inconsistent column count: expected 4 columns, got 3"),
    (b"0,1,2,1.5,0.0\n0,1,1.5,0.0\n", 2, ":2: inconsistent column count: expected 5 columns, got 4"),
    (b"", 1, ": no data lines"),
    (b"# only a comment\n\n", 1, ": no data lines"),
    (b"0,1,\xff,0.0\n", 1, ":1: byte 0xff is not UTF-8"),
    (b"0,1,1.5,0.0\n1,2,2.5,0.0\n1,3,\xff,0.0\n", 1, ":3: byte 0xff is not UTF-8"),
]


@pytest.mark.parametrize("raw,dim,message", _FIRST_LINES, ids=[
    "2-columns", "3-columns", "4-columns", "5-columns", "6-columns", "comment-first", "blank-first", "narrow-first",
    "narrow-second", "empty", "comments-only", "not-utf8-on-line-1", "not-utf8-on-line-3"])
def test_the_first_data_line_sets_the_dimension_as_a_read_at_that_dimension(tmp_path, raw, dim, message):
    # parse_discrete_dataset takes d from the first data line's commas;
    # the table is then read at d, with the bits and the errors of a read
    # told d, whichever of the loadtxt path and the scanner reads it
    path = tmp_path / "seqs.txt"
    path.write_bytes(raw)
    got = _sequences_or_error(parse_discrete_dataset, path)
    assert got == _sequences_or_error(lambda p: _read_sequences(p, dim), path)
    if message is None:
        assert got[0] == dim
    else:
        assert got == f"{path}{message}"


def test_a_position_given_twice_is_refused_by_both_constructors(tmp_path):
    # one rule: the second entry of a position is named, and no label is dropped
    with pytest.raises(ValidationError, match=r"^key 0: position \(0,\) labeled twice$"):
        DiscretePartition.from_mapping(1, {(0,): "a", 0: "b", (1,): "c"})
    with pytest.raises(ValidationError, match=r"^key range\(1, 3\): position \(1, 2\) labeled twice$"):
        DiscretePartition.from_mapping(2, {(1, 2): "a", range(1, 3): "b"})
    p = tmp_path / "part.txt"
    p.write_text("0, a\n1, b\n0, c\n")
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(p))}:3: position \(0,\) labeled twice$"):
        parse_partition(p, 1)
    # labels in the same order from both: sorted, those of one text first seen first
    p.write_text("2, b\n0, a\n1, b\n")
    assert parse_partition(p, 1).labels == DiscretePartition.from_mapping(1, {2: "b", 0: "a", 1: "b"}).labels == [
        "a", "b"]


@pytest.mark.parametrize("mapping,message", [
    ({0: 1, 1: True, 2: 1.0}, "key 1: labels 1 and True compare equal but are different values"),
    ({0: "a", 1: 1.0, 2: 1}, "key 2: labels 1.0 and 1 compare equal but are different values"),
    ({0: 0.0, 1: -0.0}, "key 1: labels 0.0 and -0.0 compare equal but are different values"),
])
def test_labels_that_compare_equal_but_differ_are_refused(mapping, message):
    # one block per label: folding True and 1.0 into label 1 would lose them
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        DiscretePartition.from_mapping(1, mapping)
    # an equal label of the same type and text, another object or not, is the same block
    assert DiscretePartition.from_mapping(1, {0: 300, 1: int("300"), 2: 300}).labels == [300]


def test_uncovered_position_names_data_line_and_partition_file(tmp_path):
    seqs, part_path = tmp_path / "seqs.txt", tmp_path / "part.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n2,5,1.0,0.0\n")
    part_path.write_text("0, a\n1, b\n")
    ds = parse_discrete_dataset(seqs)
    part = parse_partition(part_path, 1)
    where = f"{seqs}:3: position (5,) is not covered by the partition in {part_path}"
    for run in (lambda: fit_discrete(ds, part, 1), lambda: error_discrete(ds, part, 1)):
        with pytest.raises(ValidationError) as err:
            run()
        assert str(err.value) == where
    # data built in memory are named by their sequence
    mem = DiscreteDataset.from_sequences(1, [{(0,): 1.0}, {(5,): 1.0}])
    with pytest.raises(ValidationError, match=r"^sequence 1: position \(5,\) is not covered by the partition in "):
        fit_discrete(mem, part, 1)


def test_parse_partition_lattice_and_explicit(tmp_path):
    p = tmp_path / "part.txt"
    p.write_text("lattice: 2\n")
    part = parse_partition(p, 1)
    assert part.lattice is not None and part.n_blocks == 2

    p.write_text("0, a\n1, b\n")
    part = parse_partition(p, 1)
    assert part.labels == ["a", "b"]
    assert part._block_indices(np.array([[0]])).tolist() == [0]

    p.write_text("lattice: 2 0;0 1\n")
    with pytest.raises(ValidationError, match="dimension"):
        parse_partition(p, 1)

    p.write_text("lattice: 2\nlattice: 3\n")
    with pytest.raises(ValidationError, match="single line"):
        parse_partition(p, 1)

    p.write_text("0, a\n0, b\n")
    with pytest.raises(ValidationError, match="twice"):
        parse_partition(p, 1)

    p.write_text("0, 1, a\n")
    with pytest.raises(ValidationError, match="columns"):
        parse_partition(p, 1)

    p.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        parse_partition(p, 1)


def test_two_dimensional_instance(rng):
    ds = random_instance(rng, m=2, npts=6, dim=2)
    part = DiscretePartition.from_lattice(make_dual_lattice([[1, 1], [-1, 1]]))
    rank = 2
    err = error_discrete(ds, part, rank)
    best_err, _ = brute_force_optimal(ds, part, rank)
    assert err == best_err or abs(err - best_err) <= 1e-12
    model = fit_discrete(ds, part, rank)
    assert model.error == err


def test_greedy_equals_oracle_bit_for_bit(rng):
    # both total through the same block-by-block sum, so an optimal
    # greedy allocation reports the oracle's error exactly
    for trial in range(30):
        ds = random_instance(rng, m=int(rng.integers(2, 6)), npts=int(rng.integers(6, 16)))
        part = DiscretePartition.from_lattice(make_dual_lattice([[int(rng.integers(2, 5))]]))
        rank = int(rng.integers(1, 5))
        model = fit_discrete(ds, part, rank)
        best_err, best_alloc = brute_force_optimal(ds, part, rank)
        assert model.error == best_err, trial
        assert error_discrete(ds, part, rank) == best_err, trial
        assert tuple(model.allocation) == best_alloc, trial


def test_block_support_names_each_stray_generator():
    part = DiscretePartition.from_mapping(1, {(0,): "a", (1,): "b", (2,): "a"})
    ds = DiscreteDataset(dim=1, support=np.array([[0], [1], [2]]), values=np.array([[1.0, 0.5, 0.25]], dtype=complex))
    # generator 0 stays in block a, 1 touches a and b, 2 sits at the uncovered position 5
    gens = np.array([[1, 0, 0, 0], [0.6, 0.8, 0, 0], [0, 0, 0, 1]], dtype=complex)
    model = DiscreteModel(dim=1, rank=3, support=np.array([[0], [1], [2], [5]]), generators=gens,
                          eigenvalues=np.array([[1.0, 0.5, 0.1]]), home_blocks=np.array([[0, 0, 1]]),
                          block_ranks=np.array([[0, 1, 0]]), allocation=[2, 1], labels=["a", "b"], error=0.0)
    assert model.selected == [(1.0, "a", 0), (0.5, "a", 1), (0.1, "b", 0)]
    report = verify_model(model, ds, part)
    assert [str(v) for v in report.violations_of("block-support")] == [
        "[block-support] generator 1: nonzero sample at position (1,) (block 1) outside home block 0",
        "[block-support] generator 2: nonzero sample at position (5,) (block -1) outside home block 1",
    ]


_I64 = np.iinfo(np.int64)
# a few values per coordinate, so that rows repeat, with both int64 ends
_COORD = st.sampled_from([_I64.min, _I64.min + 1, -2, -1, 0, 1, 2, _I64.max - 1, _I64.max]) | st.integers(-3, 3)


@given(data=st.data())
def test_unique_rows_is_numpys_unique_along_axis_0(data):
    d = data.draw(st.integers(1, 3))
    rows = np.array(data.draw(st.lists(st.lists(_COORD, min_size=d, max_size=d), max_size=40)),
                    dtype=np.int64).reshape(-1, d)
    want = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    got = _unique_rows(rows)
    assert np.array_equal(got[0], want[0]) and got[0].dtype == np.int64 and got[0].shape == (len(want[0]), d)
    assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
    assert np.array_equal(got[2], want[2].reshape(-1)) and got[2].shape == (len(rows),)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unique_rows_of_no_rows_and_of_a_strided_view(d):
    support, first, inverse = _unique_rows(np.zeros((0, d), dtype=np.int64))
    assert support.shape == (0, d) and first.shape == inverse.shape == (0,)
    # a table's position columns: a view with the sequence index column in front
    table = np.array([[0, *([5] * d)], [1, *([-5] * d)], [2, *([5] * d)]], dtype=np.int64)
    support, first, inverse = _unique_rows(table[:, 1:])
    assert support.tolist() == [[-5] * d, [5] * d] and first.tolist() == [1, 0] and inverse.tolist() == [1, 0, 1]


def test_a_selected_label_outside_the_labels_is_refused_at_load(rng, tmp_path):
    # rank 2 on 4 sequences over 9 points, parity blocks; the second record
    # of selected.csv then names a label the model's labels do not hold
    values = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    ds = DiscreteDataset.from_sequences(1, [{(i,): v for i, v in enumerate(row)} for row in values])
    save_model(fit_discrete(ds, parity_partition(), 2), tmp_path / "m")
    assert load_model(tmp_path / "m").labels == ["0", "1"]
    selected = tmp_path / "m" / "selected.csv"
    lines = selected.read_text().splitlines()
    slot, label, rest = lines[1].split(",", 2)
    lines[1] = f"{slot},zz,{rest}"
    selected.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(selected))}:2: label 'zz' is not one of "
                                              "model.json's labels$"):
        load_model(tmp_path / "m")
