"""Properties of the shared ``<integers>,re,im`` text table: values read
back bit for bit, and a one-line fault is a located ValidationError.
Also: no module but ``sisfit.table`` reads a file."""

import ast
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sisfit.discrete import DiscreteDataset, parse_discrete_dataset, write_discrete_sequences
from sisfit.errors import ValidationError
from sisfit.spectral import PAYLOAD_CSV, SpectralDataset, SpectralGrid, ingest, write_dataset
from sisfit.table import read_table, write_table

INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


@given(st.data())
def test_rows_read_back_bit_for_bit(data):
    lead, dim = data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, 6))
    ints = np.array(data.draw(st.lists(st.lists(INT64, min_size=lead + dim, max_size=lead + dim),
                                       min_size=n, max_size=n)), dtype=np.int64).reshape(n, lead + dim)
    parts = data.draw(st.lists(FLOATS, min_size=2 * n, max_size=2 * n))
    values = np.array(parts, dtype=np.float64).view(np.complex128)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, ints, np.column_stack([values.real, values.imag]))
        lines, got_ints, got = read_table(path, lead, 2, dim)
    assert lines.tolist() == list(range(1, n + 1))
    assert np.array_equal(got_ints, ints)
    assert np.array_equal(_bits(got.view(np.complex128)[:, 0]), _bits(values))


@given(st.data())
def test_datasets_read_back_bit_for_bit(data):
    dim = data.draw(st.integers(1, 2))
    grid = SpectralGrid(dim=dim, cells_per_dim=2, trunc_radius=1)
    shape = (data.draw(st.integers(1, 2)), grid.n_cells, grid.n_translations)
    size = int(np.prod(shape))
    parts = data.draw(st.lists(FLOATS, min_size=2 * size, max_size=2 * size))
    ds = SpectralDataset(grid=grid, samples=np.array(parts).view(np.complex128).reshape(shape))

    nonzero = FLOATS.filter(lambda x: x != 0)
    entry = st.tuples(st.tuples(*[INT64] * dim), st.tuples(nonzero, FLOATS))
    seqs = [dict(s) for s in data.draw(st.lists(st.lists(entry, min_size=1, max_size=4, unique_by=lambda e: e[0]),
                                                 min_size=1, max_size=3))]
    seqs = [{pos: complex(*z) for pos, z in s.items()} for s in seqs]
    discrete = DiscreteDataset.from_sequences(dim, seqs)

    with tempfile.TemporaryDirectory() as tmp:
        back = ingest(write_dataset(ds, tmp, payload_format=PAYLOAD_CSV))
        write_discrete_sequences(discrete.support, discrete.values, Path(tmp) / "seqs.txt")
        back_discrete = parse_discrete_dataset(Path(tmp) / "seqs.txt")
    assert np.array_equal(_bits(back.samples), _bits(ds.samples))
    assert np.array_equal(back_discrete.support, discrete.support)
    assert np.array_equal(_bits(back_discrete.values), _bits(discrete.values))


def _edit(lines, i, kind, col):
    """Apply one fault to data line i (0-based); the 1-based line it is
    reported at."""
    fields = lines[i].split(",")
    if kind == "repeat":
        lines.insert(i + 1, lines[i])
        return i + 2
    if kind == "drop":
        del fields[col]
    elif kind == "token":
        fields[col] += "x"
    elif kind == "int64":
        fields[col % (len(fields) - 2)] = str(2**63)
    else:
        fields[len(fields) - 2 + col % 2] = "nan"
    lines[i] = ",".join(fields)
    return i + 1


FAULTS = st.tuples(st.sampled_from(["drop", "token", "repeat", "int64", "nan"]), st.integers(0, 10**6))


@given(st.integers(1, 2), st.integers(0, 10**6), FAULTS)
def test_one_faulty_csv_line_is_located(dim, line, fault):
    grid = SpectralGrid(dim=dim, cells_per_dim=2, trunc_radius=1)
    rng = np.random.default_rng(line)
    shape = (1, grid.n_cells, grid.n_translations)
    ds = SpectralDataset(grid=grid, samples=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_dataset(ds, tmp, payload_format=PAYLOAD_CSV)
        payload = Path(tmp) / "dataset.csv"
        lines = payload.read_text().splitlines()
        kind, col = fault
        where = _edit(lines, line % len(lines), kind, col % (dim + 4))
        payload.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=re.escape(f"{payload}:{where}: ")):
            ingest(manifest)


@given(st.integers(1, 2), st.integers(0, 10**6), FAULTS)
def test_one_faulty_sequence_line_is_located(dim, line, fault):
    rng = np.random.default_rng(line)
    support = rng.integers(-(2**63), 2**63 - 1, size=(5, dim), endpoint=True)
    values = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seqs.txt"
        write_discrete_sequences(support, values, path)
        lines = path.read_text().splitlines()
        kind, col = fault
        i = line % len(lines)
        where = _edit(lines, i, kind, col % (dim + 3))
        path.write_text("\n".join(lines) + "\n")
        if kind == "drop" and i == 0 and dim > 1:
            # the first data line sets the column count: the next one
            # then disagrees with it
            where = 2
        with pytest.raises(ValidationError, match=re.escape(f"{path}:{where}: ")):
            parse_discrete_dataset(path)


# calls that read a file: (owner name or None, function name)
_READS = {(None, "read_text"), (None, "read_bytes"), ("json", "load"), ("json", "loads"),
          ("np", "fromfile"), ("np", "loadtxt"), ("np", "genfromtxt")}


def _file_reads(tree):
    """(line, call) of every call in ``tree`` that reads a file: one of
    ``_READS``, or ``open`` without a write, append or create mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        if (owner, name) in _READS:
            yield node.lineno, f"{owner}.{name}"
        elif (None, name) in _READS:
            yield node.lineno, name
        elif name == "open":
            # open(path, mode) or path.open(mode)
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = args[0] if args else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")):
                yield node.lineno, "open"


def test_only_the_table_module_reads_files():
    src = Path(__file__).resolve().parents[1] / "src" / "sisfit"
    reads = [
        f"{path.name}:{line}: {call}"
        for path in sorted(src.glob("*.py"))
        if path.name != "table.py"
        for line, call in _file_reads(ast.parse(path.read_text()))
    ]
    assert reads == []
    # the guard sees each kind of read
    probe = ast.parse("a.read_text(); b.read_bytes(); json.loads(t); np.fromfile(p); open(p); p.open()"
                      "; open(p, 'w'); p.open(mode='a')")
    assert [call for _, call in _file_reads(probe)] == ["read_text", "read_bytes", "json.loads", "np.fromfile",
                                                        "open", "open"]
