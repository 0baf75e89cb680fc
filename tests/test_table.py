"""Properties of the shared ``<integers>,re,im`` text table: values read
back bit for bit, a one-line fault is a located ValidationError, and the
one-call ``np.loadtxt`` path reads what the line scanner reads.  Also: no
module but ``sisfit.table`` reads a file, and the writers replace a file
rather than write through it."""

import ast
import itertools
import os
import re
import stat
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sisfit import table
from sisfit.discrete import (DiscreteDataset, DiscretePartition, fit_discrete, parse_discrete_dataset,
                             write_discrete_sequences)
from sisfit.errors import ValidationError
from sisfit.extra import fit_extra_invariant
from sisfit.lattice import make_dual_lattice
from sisfit.multitile import fit_multitile
from sisfit.sis import fit_sis
from sisfit.spectral import PAYLOAD_CSV, SpectralDataset, SpectralGrid, ingest, write_dataset
from sisfit.storage import RESIDUALS_CSV, load_model, save_model
from sisfit.table import read_table, write_table

from conftest import random_dataset

INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def test_write_table_memory_stays_below_the_file_size(tmp_path):
    # each chunk's slice is converted, not the whole table at once
    rng = np.random.default_rng(7)
    ints = rng.integers(-(2**63), 2**63 - 1, size=(200_000, 3), endpoint=True)
    floats = rng.standard_normal((200_000, 2))
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        write_table(path, ints, floats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_the_first_bad_line_is_named_whatever_its_fault(tmp_path):
    # a comment makes the table take the line scanner; each line is
    # checked in full before the next, so a non-finite value on line 2
    # is named before a bad token on line 3
    path = tmp_path / "t.csv"
    path.write_text("# j,g,k,re,im\n0,0,0,nan,0.0\n0,1,x,1.0,0.0\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: non-finite value nan$"):
        read_table(path, 2, 2, 1)
    path.write_text("# j,g,k,re,im\n0,0,0,1.0,0.0\n0,1,99999999999999999999,inf,0.0\n0,1,0,1.0\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: position \\(99999999999999999999,\\) "
                                              "outside the int64 range$"):
        read_table(path, 2, 2, 1)


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


def _per_row_join(*blocks):
    """The table text as one ``",".join(map(repr, row))`` per row."""
    rows = np.concatenate([b.astype(object) for b in blocks], axis=1).tolist()
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


@pytest.mark.parametrize("rows", [0, 1, 3, 4096, 4097, 9000])
def test_write_table_matches_the_per_row_join(tmp_path, rows):
    # signed zeros, the smallest subnormal, infinities, nan, the int64
    # extremes and bools, side by side and across the chunk boundary
    floats = np.resize(np.array([-0.0, 0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 0.1, 1e308]), (rows, 3))
    ints = np.resize(np.array([-(2**63), 2**63 - 1, 0, -1], dtype=np.int64), (rows, 2))
    bools = np.resize(np.array([True, False, True]), (rows, 1))
    for blocks in [(ints, floats, bools), (floats,), (ints[:, :0],), (ints[:, :0], floats[:, :0])]:
        path = tmp_path / "t.csv"
        write_table(path, *blocks)
        assert path.read_text(encoding="utf-8") == _per_row_join(*blocks)


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


@given(st.data())
def test_a_shuffled_payload_reads_back_bit_for_bit(data):
    # a payload in sample order is taken by one compare per key column, any
    # other order by the general path of one_row_per_key: the same bits
    dim = data.draw(st.integers(1, 2))
    grid = SpectralGrid(dim=dim, cells_per_dim=2, trunc_radius=1)
    shape = (data.draw(st.integers(1, 2)), grid.n_cells, grid.n_translations)
    size = int(np.prod(shape))
    parts = data.draw(st.lists(FLOATS, min_size=2 * size, max_size=2 * size))
    ds = SpectralDataset(grid=grid, samples=np.array(parts).view(np.complex128).reshape(shape))
    order = data.draw(st.permutations(range(size)))
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_dataset(ds, tmp, payload_format=PAYLOAD_CSV)
        ordered = ingest(manifest)
        payload = Path(tmp) / "dataset.csv"
        lines = payload.read_text().splitlines()
        payload.write_text("".join(lines[i] + "\n" for i in order))
        shuffled = ingest(manifest)
    assert np.array_equal(_bits(ordered.samples), _bits(ds.samples))
    assert np.array_equal(_bits(shuffled.samples), _bits(ds.samples))


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


# what a hand-made table may hold beyond repr'd values: padding (str.strip
# drops all of it; int() and float() only some), tokens that int() or
# float() read, refuse or read to a non-finite value (\u0663 and \u0661.\u0665
# are non-ASCII digits, \udcff a byte that is not UTF-8), trailing comments,
# lines the scanner skips, and line ends
PAD = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]
INT_TOKENS = ["+3", "1_000", "0003", "-0", "+-3", "1 2", "\u0663", "1.0", "1e3", str(2**63), " ", "3\udcff"]
FLOAT_TOKENS = ["1e308", "+1.5", ".5", "5.", "1e-400", "1_0.5", "\u0661.\u0665", "0x1p3", "inf", "-inf", "nan",
                "1e400", "1.5 2", "e5"]
SKIPPED_LINES = ["# c", "   # indented", "", "   ", "\t"]
ENDS = ["\r\n", "\r", ""]
EDITS = ([("pad", t) for t in PAD] + [("int", t) for t in INT_TOKENS] + [("float", t) for t in FLOAT_TOKENS]
         + [("drop", ""), ("token", "x"), ("comment", " # x"), ("comment", " #3")]
         + [("line", t) for t in SKIPPED_LINES] + [("end", t) for t in ENDS])


def _table_text(rows, ints, edits):
    """The text of ``rows`` (token lists, ``ints`` integer columns first)
    with each edit (kind, text, row, column) applied; one may make the
    table faulty."""
    rows = [list(row) for row in rows]
    for kind, text, r, c in edits:
        row = rows[r % len(rows)]
        c %= len(row)
        if kind == "pad":
            row[c] = text + row[c] + text
        elif kind == "int":
            row[c % ints] = text
        elif kind == "float" and len(row) > ints:
            row[ints + c % (len(row) - ints)] = text
        elif kind == "drop" and len(row) > 1:
            del row[c]
        elif kind in ("token", "comment"):
            row[c if kind == "token" else -1] += text
    lines = [",".join(row) for row in rows]
    ends = ["\n"] * len(lines)
    for kind, text, r, _ in edits:
        if kind == "line":
            lines.insert(r % (len(lines) + 1), text)
            ends.append("\n")
        elif kind == "end":
            ends[r % len(ends)] = text
    return "".join(map(str.__add__, lines, ends))


def _outcome(read, path, *args):
    """The dtypes, shapes and bits of ``read(path, *args)``, or the text
    of the ValidationError it raises."""
    try:
        return [(a.dtype, a.shape, a.tobytes()) for a in read(path, *args)]
    except ValidationError as exc:
        return str(exc)


def _same_as_scanner(path, text, *args):
    """``read_table`` of ``text`` returns the scanner's bits, dtypes and
    shapes, or raises its ValidationError text."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert _outcome(read_table, path, *args) == _outcome(table._scan_table, path, *args), (text, args)


def test_each_edit_reads_as_the_scanner(tmp_path):
    rows = [["0", "-1", "0.5", "-0.0"], ["1", "9223372036854775807", "5e-324", "1e+16"],
            ["-9223372036854775808", "2", "-1.25", "7.0"]]
    # one row too, where an edit reaches every line
    cases = itertools.product(EDITS, range(3), range(4), (rows, rows[:1]))
    for i, (edit, r, c, table_rows) in enumerate(cases):
        _same_as_scanner(tmp_path / f"t{i}.csv", _table_text(table_rows, 2, [(*edit, r, c)]), 1, 2, 1)
    _same_as_scanner(tmp_path / "plain.csv", _table_text(rows, 2, []), 1, 2, 1)
    assert table._loadtxt_table(tmp_path / "plain.csv", 1, 2, 1) is not None


@given(st.data())
def test_loadtxt_path_reads_as_the_scanner(data):
    lead, floats, dim = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    ints, n = lead + dim, data.draw(st.integers(1, 5))
    rows = [[str(v) for v in data.draw(st.lists(INT64, min_size=ints, max_size=ints))]
            + [repr(x) for x in data.draw(st.lists(FLOATS, min_size=floats, max_size=floats))]
            for _ in range(n)]
    where = st.integers(0, 10**6)
    edits = data.draw(st.lists(st.tuples(st.sampled_from(EDITS), where, where), max_size=3))
    args = (lead, floats, dim)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _same_as_scanner(path, _table_text(rows, ints, [(*e, r, c) for e, r, c in edits]), *args)
        if not edits:
            assert table._loadtxt_table(path, *args) is not None


@pytest.mark.parametrize("line", ["1,1,1.5,2 # x", "1,1,1.5,2 #3", "1,1,1.5\x1f,2"])
def test_tokens_loadtxt_would_take_are_located_errors(tmp_path, line):
    # np.loadtxt reads each line (with comments="#" for the first two);
    # the scanner refuses them, and read_table does too, at their line
    path = tmp_path / "t.csv"
    path.write_text(f"0,0,0.5,1\n{line}\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:2: could not convert string to float")):
        read_table(path, 1, 2, 1)


def test_written_tables_take_the_loadtxt_path(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"the line scanner was asked to read {path}")

    monkeypatch.setattr(table, "scan", refuse)
    rng = np.random.default_rng(7)
    grid = SpectralGrid(dim=2, cells_per_dim=4, trunc_radius=1)
    shape = (2, grid.n_cells, grid.n_translations)
    ds = SpectralDataset(grid=grid, samples=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    back = ingest(write_dataset(ds, tmp_path, payload_format=PAYLOAD_CSV))
    assert np.array_equal(_bits(back.samples), _bits(ds.samples))

    discrete = DiscreteDataset.from_sequences(2, [{(0, 1): 1.5 - 2j, (-3, 4): -0.0 + 5e-324j}, {(2, 2): 1e308 + 0j}])
    write_discrete_sequences(discrete.support, discrete.values, tmp_path / "seqs.txt")
    back_discrete = parse_discrete_dataset(tmp_path / "seqs.txt")
    assert np.array_equal(_bits(back_discrete.values), _bits(discrete.values))

    model = fit_sis(ds, 1)
    save_model(model, tmp_path / "model")
    lines, cells, residuals = read_table(tmp_path / "model" / RESIDUALS_CSV, 1, 1)
    assert lines.tolist() == list(range(1, grid.n_cells + 1)) and cells[:, 0].tolist() == list(range(grid.n_cells))
    assert np.array_equal(residuals[:, 0], model.residuals)
    assert np.array_equal(load_model(tmp_path / "model").residuals, model.residuals)


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


@pytest.mark.parametrize("text", ["\n", "\n\n\n", "\n1,1,1.5,2\n", "1,1,1.5,2\n\n", "1,1,1.5,2\n\n1,2,0.5,3"])
def test_empty_lines_read_as_the_scanner_without_a_warning(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a file of empty lines only
        got = read_table(path, 2, 2)
    want = table._scan_table(path, 2, 2, 0)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


# (text, dim, whether the loadtxt path reads it): each case at every
# block size up to its length, so every byte falls on a block boundary once
_BLOCK_CASES = [
    ("0,1,0.5,1\n1,2,1.5,2x", 1, False),  # a non-plain byte, in the last block
    ("0,1,0.5,1\n\n1,2,1.5,2\n", 1, False),  # an empty line: at block size 10 its \n\n is split
    ("0,1,2,0.5,1\n1,2,3,1.5,2\n", 2, True),  # two position columns, over several blocks
    ("0,1,0.5,1\n1,2,1.5,2", 1, True),  # no trailing newline
    ("", 1, False),
    ("\n\n\n", 1, False),
]


@pytest.mark.parametrize("text,dim,plain", _BLOCK_CASES)
def test_the_block_pass_reads_as_the_scanner(tmp_path, monkeypatch, text, dim, plain):
    path = tmp_path / "t.csv"
    path.write_text(text)
    want = _outcome(table._scan_table, path, 1, 2, dim)
    for block in range(1, len(text) + 2):
        monkeypatch.setattr(table, "_BLOCK", block)
        assert (table._loadtxt_table(path, 1, 2, dim) is not None) == plain, block
        assert _outcome(read_table, path, 1, 2, dim) == want, block


def test_the_plain_check_holds_one_block_at_a_time(tmp_path, monkeypatch):
    # no copy of the file and no file-sized mask: a 2 MB plain table is
    # checked within a few blocks of memory (loadtxt itself stubbed out)
    path = tmp_path / "t.csv"
    path.write_bytes(b"0,1,0.5,1\n" * 200_000)

    def refuse(*args, **kwargs):
        raise ValueError("not parsed here")

    monkeypatch.setattr(np, "loadtxt", refuse)
    tracemalloc.start()
    try:
        assert table._loadtxt_table(path, 1, 2, 1) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * table._BLOCK


def _sized_table(size: int, last: str) -> str:
    """A table of ``size`` bytes, ``0,1,0.5,1`` rows ending in the line
    ``last``: zeros after the first row's 0.5 make up the size."""
    body = size - len(last)
    return "0,1,0.5" + "0" * (body % 10) + ",1\n" + "0,1,0.5,1\n" * (body // 10 - 1) + last


# (last line, whether the loadtxt path reads the table): a plain table,
# one without a final newline, and faults that only the scanner locates
_SIZED_LAST_LINES = [("1,2,1.5,2\n", True), ("1,2,1.5,2", True), ("1,2,1.5\n", False),
                     (f"1,{2**63},1.5,2\n", False), ("1,2,1e400,2\n", False), ("\n1,2,1.5,2\n", False),
                     ("1,2,1.5,2\n \n", False)]


@pytest.mark.parametrize("last,plain", _SIZED_LAST_LINES)
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_a_table_at_the_block_size_reads_as_the_scanner(tmp_path, monkeypatch, extra, last, plain):
    # a table of at most one block is parsed from the block already read
    # (loadtxt gets its lines), a longer one from its path: the same bits
    # and the same errors either way
    path = tmp_path / "t.csv"
    path.write_text(_sized_table(table._BLOCK + extra, last))
    assert path.stat().st_size == table._BLOCK + extra
    sources = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        sources.append(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    assert (table._loadtxt_table(path, 1, 2, 1) is not None) == plain
    assert type(sources[0]) is (list if extra <= 0 else type(path))
    assert _outcome(read_table, path, 1, 2, 1) == _outcome(table._scan_table, path, 1, 2, 1)


def test_loading_a_model_opens_each_table_once(tmp_path, rng, monkeypatch):
    # every table of an extra model is at most one block: each is opened
    # once, for the plain check, and parsed from what that read
    save_model(_fitted("extra", rng), tmp_path)
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("loadtxt opened a file by its path")

    monkeypatch.setattr(table, "open", counting_open, raising=False)
    monkeypatch.setattr(np.lib._datasource, "open", refuse)
    load_model(tmp_path)
    tables = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert tables == ["eigencurves.csv", "home_cosets.csv", "residuals.csv"]
    assert sorted(name for name in opened if name.endswith(".csv")) == tables


def _fitted(regime, rng):
    if regime == "discrete":
        values = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        ds = DiscreteDataset.from_sequences(1, [{(i,): v for i, v in enumerate(row)} for row in values])
        return fit_discrete(ds, DiscretePartition.from_lattice(make_dual_lattice([[2]])), 2)
    ds = random_dataset(rng, cells=4, trunc=2, m=3)
    if regime == "sis":
        return fit_sis(ds, 2)
    if regime == "extra":
        return fit_extra_invariant(ds, make_dual_lattice([[2]]), 2)
    return fit_multitile(ds, 2, 1)


def _contents(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("regime,name", [("sis", "residuals.csv"), ("sis", "eigencurves.csv"),
                                         ("extra", "home_cosets.csv"), ("pw", "chosen.csv"),
                                         ("discrete", "selected.csv")])
def test_a_model_table_with_its_rows_reversed_loads_the_same_model(tmp_path, rng, regime, name):
    # a keyed table in key order is taken by one compare per key column;
    # reversed, it takes the general path of one_row_per_key to the same model
    save_model(_fitted(regime, rng), tmp_path / "model")
    save_model(load_model(tmp_path / "model"), tmp_path / "ordered")
    path = tmp_path / "model" / name
    lines = path.read_text().splitlines()
    assert len(lines) > 1
    path.write_text("".join(ln + "\n" for ln in lines[::-1]))
    save_model(load_model(tmp_path / "model"), tmp_path / "reversed")
    assert _contents(tmp_path / "reversed") == _contents(tmp_path / "ordered")


@pytest.mark.parametrize("reverse", [False, True])
def test_a_duplicate_model_row_is_named_in_any_row_order(tmp_path, rng, reverse):
    save_model(_fitted("sis", rng), tmp_path)
    path = tmp_path / RESIDUALS_CSV
    lines = path.read_text().splitlines()
    rest = lines[1:][::-1] if reverse else lines[1:]
    path.write_text("".join(ln + "\n" for ln in [lines[0], *rest, lines[0]]))
    with pytest.raises(ValidationError, match=re.escape(f"{path}:{len(lines) + 1}: duplicate row for cell 0") + "$"):
        load_model(tmp_path)


@pytest.mark.parametrize("regime", ["sis", "extra", "pw", "discrete"])
def test_a_second_save_into_the_same_directory_writes_the_same_bytes(tmp_path, rng, regime):
    model, out, kept = _fitted(regime, rng), tmp_path / "model", tmp_path / "kept"
    save_model(model, out)
    first = _contents(out)
    # hard links keep the first files: a writer that truncated them in place would change these too
    kept.mkdir()
    for name in first:
        os.link(out / name, kept / name)
    save_model(model, out)
    assert _contents(out) == first == _contents(kept)
    assert all((out / name).stat().st_nlink == 1 for name in first)


def test_writers_replace_a_symlink_rather_than_write_through_it(tmp_path):
    kept = tmp_path / "kept"
    kept.write_text("old\n")
    writers = {
        "table": lambda p: write_table(p, np.ones((2, 2))),
        "object": lambda p: table.write_object(p, {"a": 1}),
        "c16": lambda p: table.write_c16(p, np.ones(3, dtype=complex)),
        "created": lambda p: table.create(p).close(),
        "copied": lambda p: table.copy_file(tmp_path / "table", p),
    }
    for name, write in writers.items():
        (tmp_path / f"{name}.lnk").symlink_to(kept)
        write(tmp_path / f"{name}.lnk")
        assert not (tmp_path / f"{name}.lnk").is_symlink()
        write(tmp_path / name)
        assert (tmp_path / f"{name}.lnk").read_bytes() == (tmp_path / name).read_bytes()
    assert kept.read_text() == "old\n"


def test_a_copy_onto_its_own_source_leaves_it_alone(tmp_path):
    source = tmp_path / "part.txt"
    source.write_text("lattice: 2\n")
    (tmp_path / "link.txt").symlink_to(source)
    before = source.stat()
    for target in (source, tmp_path / "link.txt"):
        table.copy_file(source, target)
        assert (tmp_path / "link.txt").is_symlink() and source.read_text() == "lattice: 2\n"
        assert (source.stat().st_ino, source.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_create_writes_through_a_fifo_without_unlinking_it(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that opening it to write does not block
    try:
        with table.create(fifo) as fh:
            fh.write("row\n")
        assert os.read(reader, 16) == b"row\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def _written_in_place(path: Path) -> bool:
    kept = path.with_name("kept")  # a hard link to the file stays its link only if it was truncated
    os.link(path, kept)
    table.write_object(path, {"a": 1})
    assert path.read_text() == '{\n  "a": 1\n}\n'
    in_place = os.path.samefile(kept, path)
    kept.unlink()
    return in_place


def test_create_truncates_what_it_may_not_replace(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old, and longer than the new contents\n")
    assert not _written_in_place(path)
    # a file of another user: replacing it would change its owner
    monkeypatch.setattr(os, "geteuid", lambda: path.stat().st_uid + 1)
    assert _written_in_place(path)
    monkeypatch.undo()

    # a directory that does not let us unlink the file
    unlink = os.unlink

    def refuse(p, *args, **kwargs):
        if Path(p) == path:
            raise PermissionError(13, "Permission denied", str(p))
        unlink(p, *args, **kwargs)
    monkeypatch.setattr(os, "unlink", refuse)
    assert _written_in_place(path)


def test_a_replaced_file_keeps_its_permission_bits(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    assert not _written_in_place(path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "big-endian", "real"])
def test_write_c16_writes_the_bytes_of_a_converted_copy(tmp_path, rng, layout):
    # write_c16 converts only what is not little-endian complex128 already;
    # the file holds the bytes of np.asarray(values).astype("<c16") in C order
    values = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    values = {"contiguous": values, "transposed": values.transpose(2, 0, 1),
              "big-endian": values.astype(">c16"), "real": values.real}[layout]
    table.write_c16(tmp_path / "v.bin", values)
    assert (tmp_path / "v.bin").read_bytes() == np.asarray(values).astype("<c16").tobytes()
    read = table.read_c16(tmp_path / "v.bin", values.shape)
    assert read.tobytes() == np.asarray(values, dtype=np.complex128).tobytes()
