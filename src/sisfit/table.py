"""Every file sisfit reads, and the formats it writes.

``scan`` yields the data lines of a text file, and ``read_table`` reads
the comma-separated numeric tables: sample tables (``j,g,k_1,...,k_d,re,im``
CSV payloads, ``j,n_1,...,n_d,re,im`` discrete tables) and a model's
tables.  A plain table (ASCII digits, signs, points, exponents, commas,
spaces, tabs and newlines, no blank line) is parsed by one ``np.loadtxt``
call, from the lines already read when the file is one 64 KiB block (a
model's tables), else from its path; any other table, or one that call
refuses or reads a non-finite value from, is read again over ``scan``,
which gives the same values and raises the located messages.
``one_row_per_key`` is the one rule of a keyed table (one row per key),
which takes rows already in key order by one compare per key column.
``read_object`` reads a JSON object and ``read_c16`` little-endian
complex doubles.  Errors are ValidationErrors naming the file, and the
line where there is one.  ``write_table`` writes values with ``repr``, so
that they read back bit for bit.  Every writer opens its file with
``create``, which replaces a regular file or symlink already there
rather than truncating it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import stat
from array import array
from pathlib import Path

import numpy as np

from .errors import ValidationError


def _existing(path):
    if not os.path.isfile(path):
        raise ValidationError(f"file not found: {path}")
    return path


def _utf8(path, text: str, first_line: int = 1) -> None:
    """Raise at the line of the first byte of ``text``, read from line
    ``first_line`` on with ``surrogateescape``, that is not UTF-8."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        line = first_line + text.count("\n", 0, exc.start)
        raise ValidationError(f"{path}:{line}: byte {ord(text[exc.start]) - 0xDC00:#04x} is not UTF-8") from None


def scan(path):
    """The (line number, stripped text) of each line of ``path`` but blank
    lines and ``#`` comments; every line must be UTF-8."""
    path = _existing(path)
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, text in enumerate(fh, start=1):
            if not text.isascii():
                _utf8(path, text, lineno)
            text = text.strip()
            if text and text[0] != "#":
                yield lineno, text


def read_table(path, lead: int, floats: int, dim: int = 0):
    """The data lines of ``path`` as (line numbers, int64 array of the
    ``lead + dim`` integer columns, float64 array of the ``floats`` columns
    after them): every line has those ``lead + dim + floats`` columns.
    The first line that ``split_row`` or ``parse_row`` refuses (a wrong
    column count, a bad token, an integer beyond int64 or a non-finite
    value) raises ValidationError at ``path:line``.

    A plain file is parsed by one ``np.loadtxt`` call (see
    ``_loadtxt_table``); every other file, and every file that call
    refuses, is read by the located line scanner.  Both give the same
    values bit for bit, and every error comes from the scanner.
    """
    path = _existing(path)
    return _loadtxt_table(path, lead, floats, dim) or _scan_table(path, lead, floats, dim)


# the bytes of a plain table: over these, a token np.loadtxt takes is one
# that int() or float() takes, to the same value (over others it is not:
# loadtxt takes "1.5\x1f", which float() refuses)
_PLAIN = b"0123456789+-.eE, \t\n"

_BLOCK = 1 << 16  # bytes the plain check of ``_loadtxt_table`` reads at a time


def _loadtxt_table(path, lead: int, floats: int, dim: int):
    """``read_table`` of a plain file from one structured ``np.loadtxt``
    call, or None.  Plain: only bytes of ``_PLAIN``, and not only
    newlines.  None also when loadtxt refuses the file, reads a non-finite
    value or reads fewer rows than the file has lines: loadtxt skips empty
    lines (and refuses whitespace-only ones), so a full count means that
    row r is line r + 1.

    The check is one pass over ``_BLOCK``-byte blocks, so that no copy
    of the file is held: per block, the ``translate`` test for plain
    bytes and the newline count over a uint8 view (several times faster
    than ``bytes.count``).  A file of one block is then parsed from the
    lines of that block (``\\n`` is the only line break a plain file
    holds): the same tokenizer and values, without a second open and
    NumPy's path lookup, which cost more than the parse of a small table.
    A longer file is parsed from its path, which keeps memory at one
    block and is faster than a list of its lines.  The integer and float
    columns are returned as views into loadtxt's rows, not copied.  What
    is left beside loadtxt's parse, the floor of text ingest, is the
    ``translate`` test."""
    size, newlines, last = 0, 0, b""
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            if block.translate(None, _PLAIN):
                return None
            size += len(block)
            newlines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == 10))
            last = block
    if newlines == size:  # empty lines only: loadtxt would warn
        return None
    n_lines = newlines + (not last.endswith(b"\n"))
    source = last.decode("ascii").splitlines() if size <= _BLOCK else path
    fields = [("i", np.int64, (lead + dim,)), ("f", np.float64, (floats,))]
    try:
        rows = np.loadtxt(source, dtype=fields, delimiter=",", comments=None, ndmin=1, encoding="ascii")
    except (ValueError, OverflowError):
        return None
    if len(rows) != n_lines:  # loadtxt skipped an empty line
        return None
    if not all(np.isfinite(rows["f"][:, c]).all() for c in range(floats)):  # a column at a time: 1-d loops
        return None
    return np.arange(1, len(rows) + 1, dtype=np.int64), rows["i"], rows["f"]


def _scan_table(path, lead: int, floats: int, dim: int):
    """``read_table`` over ``scan``, line by line through ``split_row`` and ``parse_row``."""
    lines, ints, vals = array("q"), array("q"), array("d")
    for lineno, text in scan(path):
        parts = split_row(path, lineno, text, lead + dim + floats)
        row, values = parse_row(path, lineno, parts[: lead + dim], parts[lead + dim :], lead)
        ints.extend(row)
        vals.extend(values)
        lines.append(lineno)
    lines = np.frombuffer(lines, dtype=np.int64)
    return (lines, np.frombuffer(ints, dtype=np.int64).reshape(len(lines), lead + dim),
            np.frombuffer(vals, dtype=np.float64).reshape(len(lines), floats))


def split_row(path, lineno: int, text: str, width: int) -> list:
    """The ``width`` comma-separated fields of data line ``lineno`` of
    ``path``; another count raises ValidationError at ``path:lineno``."""
    parts = text.split(",")
    if len(parts) != width:
        raise ValidationError(f"{path}:{lineno}: inconsistent column count: "
                              f"expected {width} columns, got {len(parts)}")
    return parts


def parse_row(path, lineno: int, ints, floats, lead: int):
    """The int64 integers of the tokens ``ints`` and the finite floats of
    the tokens ``floats`` of line ``lineno`` of ``path``.  Raises at that
    line on a token that does not parse (Python's message), else on the
    first integer beyond int64 (``index N`` among the first ``lead``, else
    the ``position`` after them), else on the first non-finite value."""
    try:
        row, values = list(map(int, ints)), list(map(float, floats))
    except ValueError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if row and not (-(2**63) <= min(row) and max(row) < 2**63):
        c = next(c for c, v in enumerate(row) if not -(2**63) <= v < 2**63)
        what = f"index {row[c]}" if c < lead else f"position {tuple(row[lead:])}"
        raise ValidationError(f"{path}:{lineno}: {what} outside the int64 range")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{path}:{lineno}: non-finite value {next(v for v in values if not math.isfinite(v))}")
    return row, values


def reject(bad: np.ndarray, where, what) -> None:
    """Raise ValidationError ``"{where(r)}: {what(r)}"`` at the first row
    r with ``bad[r]``."""
    if bad.any():
        r = int(np.argmax(bad))
        raise ValidationError(f"{where(r)}: {what(r)}")


def repeats(keys: np.ndarray) -> np.ndarray:
    """Which entries of ``keys`` (nonnegative integers) repeat an earlier
    one."""
    repeat = np.zeros(len(keys), dtype=bool)
    if len(keys) and np.bincount(keys).max() > 1:
        repeat[:] = True
        repeat[np.unique(keys, return_index=True)[1]] = False  # first occurrences
    return repeat


def in_key_order(columns, sizes: tuple) -> bool:
    """Whether the rows count through the entries of an array of shape
    ``sizes`` in row-major order, each once, by the key columns
    ``columns`` of its first axes: every column has prod(sizes) entries,
    and column c, reshaped to ``sizes``, holds its index along axis c.
    One broadcast compare per column against an ``arange``; no flat key
    index is formed."""
    total = math.prod(sizes)
    if any(len(column) != total for column in columns):  # before an arange is sized
        return False
    for c, (column, n) in enumerate(zip(columns, sizes)):
        counts = np.arange(n).reshape((n,) + (1,) * (len(sizes) - c - 1))  # broadcast over the later axes
        if not (column.reshape(sizes) == counts).all():
            return False
    return True


def one_row_per_key(path, lines: np.ndarray, keys: tuple, sizes: tuple, what: str):
    """The rows, in key order, of a table of ``path`` with exactly one row
    for each key: row r, at line ``lines[r]``, has the key
    ``(keys[0][r], keys[1][r], ...)``, whose entry c runs over
    0..sizes[c]-1.  A key out of range, or repeated when none is missing,
    raises ValidationError at its line; missing keys raise
    ``"{path}: expected one row for each {what} ..."``.

    A table whose rows are in key order already (``in_key_order``, the
    tables sisfit writes) gives ``slice(None)``, so that the caller takes
    views of its columns rather than a gather.  Any other row order takes
    the general path: the range test, then a flat key index whose counts
    find the missing and the repeated keys, and the index array of the
    rows in key order.
    """
    if in_key_order(keys, sizes):
        return slice(None)
    at = lambda r: f"{path}:{lines[r]}"  # noqa: E731
    key = lambda r: tuple(int(c[r]) for c in keys) if len(keys) > 1 else int(keys[0][r])  # noqa: E731
    span = " x ".join(f"0..{n - 1}" for n in sizes)
    outside = np.zeros(len(lines), dtype=bool)
    for c, n in zip(keys, sizes):
        outside |= (c < 0) | (c >= n)
    reject(outside, at, lambda r: f"{what} {key(r)} outside {span}")
    total = math.prod(sizes)
    # with at least ``total`` in-range rows the key index fits int64
    flat = np.ravel_multi_index(keys, sizes) if len(lines) >= total else None
    if flat is None or not np.bincount(flat, minlength=total).all():
        raise ValidationError(f"{path}: expected one row for each {what} in {span}, got {len(lines)} rows")
    if len(lines) > total:  # every key is there, so some repeat
        reject(repeats(flat), at, lambda r: f"duplicate row for {what} {key(r)}")
    rows = np.empty(total, dtype=np.intp)
    rows[flat] = np.arange(total)
    return rows


_WRITE_CHUNK = 4096  # rows converted and formatted at a time; keeps memory flat


def write_table(path, *blocks: np.ndarray) -> None:
    """Write one comma-separated line per row of the 2-d ``blocks`` put
    side by side, each value as its ``repr``."""
    line = ",".join(["%r"] * sum(b.shape[1] for b in blocks)) + "\n"
    with create(path) as fh:
        for start in range(0, len(blocks[0]), _WRITE_CHUNK):
            chunk = np.concatenate([b[start : start + _WRITE_CHUNK].astype(object) for b in blocks], axis=1)
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))


class _Meta:
    """The fields of one JSON object read from ``path`` (a manifest or a
    ``model.json``); a missing or mistyped field raises ValidationError
    naming the file and the field."""

    def __init__(self, path: Path, fields: dict):
        self.path = path
        self.fields = fields

    def get(self, key: str, convert):
        if key not in self.fields:
            raise ValidationError(f"{self.path}: missing field {key!r}")
        try:
            return convert(self.fields[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{self.path}: malformed field {key!r}: {exc!r}") from None


def _json(kind):
    """Converter that accepts only JSON values of type ``kind`` (int,
    float, str or list): never a bool for a number, never a string for an
    int.  An int is also a float."""

    def convert(value):
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
        return kind(value)

    return convert


def read_object(path) -> _Meta:
    """The fields of the JSON object in the UTF-8 file ``path``."""
    path = Path(_existing(path))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        _utf8(path, text)
    try:
        fields = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(fields, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return _Meta(path, fields)


def write_object(path, fields: dict) -> None:
    with create(path) as fh:
        fh.write(json.dumps(fields, indent=2, sort_keys=True) + "\n")


def read_c16(path, shape: tuple) -> np.ndarray:
    """The complex128 array of ``shape`` stored in ``path`` as
    little-endian complex doubles; the file size must match, and every
    value must be finite (the first that is not is named by its index)."""
    path = _existing(path)
    expected, size = math.prod(shape), os.path.getsize(path)
    if size != 16 * expected:
        raise ValidationError(f"{path} holds {size} bytes, expected {16 * expected} ({expected} samples)")
    values = np.fromfile(path, dtype="<c16").astype(np.complex128, copy=False).reshape(shape)
    bad = ~np.isfinite(values)
    if bad.any():
        index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), shape))
        raise ValidationError(f"{path}: non-finite sample at index {index}")
    return values


def write_c16(path, values: np.ndarray) -> None:
    with create(path, "wb") as fh:
        np.ascontiguousarray(values, dtype="<c16").tofile(fh)


def create(path, mode: str = "w"):
    """Open ``path`` as a new file for writing (``mode`` "w" or "wb").  A
    symlink, or a regular file of this user, already there is unlinked
    first, not truncated: on ext4, truncating a file written shortly
    before has taken some 50 ms, against 0.03 ms to unlink it and make a
    new one.  So a symlink at ``path`` is replaced, not written through,
    and a replaced file keeps its permission bits.  Any other file (a
    device such as /dev/null, a FIFO, a file of another user) and one the
    directory does not let us unlink is opened as ``open`` opens it."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return open(path, mode)
    replace = stat.S_ISLNK(st.st_mode) or (stat.S_ISREG(st.st_mode) and st.st_uid == os.geteuid())
    if replace:
        try:
            os.unlink(path)
        except PermissionError:
            replace = False
    fh = open(path, mode)
    if replace and stat.S_ISREG(st.st_mode):
        os.chmod(fh.fileno(), st.st_mode & 0o777)
    return fh


def copy_file(source, target) -> None:
    """Copy ``source`` to a new file ``target``; nothing when ``target``
    is ``source`` itself (or a link to it)."""
    if os.path.exists(target) and os.path.samefile(source, target):
        return
    with open(source, "rb") as src, create(target, "wb") as dst:
        shutil.copyfileobj(src, dst)
