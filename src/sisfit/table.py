"""Comma-separated text tables.

``read_table`` reads the sample lines that spectral CSV payloads
(``j,g,k_1,...,k_d,re,im``) and discrete tables (``j,n_1,...,n_d,re,im``,
also a discrete model's ``generators.txt``) share; ``write_table`` writes
them and a model's other numeric tables with ``repr``, so that every value
reads back bit for bit.
"""

from __future__ import annotations

from array import array
from pathlib import Path

import numpy as np

from .errors import ValidationError


def read_table(path, lead: int, dim: int | None = None):
    """The data lines of ``path`` as (line numbers, int64 array of the
    integer columns of shape (lines, lead + dim), complex128 values).

    ``dim`` fixes the vector length; ``None`` lets the first data line set
    it.  A wrong column count, a token that does not parse, an integer
    beyond int64 or a non-finite value raises ValidationError naming
    ``path:line``.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"file not found: {path}")
    width = None if dim is None else lead + dim + 2
    lines, ints, floats = array("q"), array("q"), array("d")
    with open(path, errors="replace") as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",")
            width = width or max(len(parts), lead + 3)  # unfixed: the first data line sets it
            if len(parts) != width:
                raise ValidationError(f"{path}:{lineno}: inconsistent column count: "
                                      f"expected {width} columns, got {len(parts)}")
            try:
                row = [int(tok) for tok in parts[:-2]]
                floats.append(float(parts[-2]))
                floats.append(float(parts[-1]))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            try:
                ints.extend(row)
            except OverflowError:
                c = next(c for c, v in enumerate(row) if not -(2**63) <= v < 2**63)
                what = f"index {row[c]}" if c < lead else f"position {tuple(row[lead:])}"
                raise ValidationError(f"{path}:{lineno}: {what} outside the int64 range") from None
            lines.append(lineno)
    lines = np.frombuffer(lines, dtype=np.int64)
    values = np.frombuffer(floats, dtype=np.complex128)
    reject(~np.isfinite(values), lambda r: f"{path}:{lines[r]}", lambda r: f"non-finite value {complex(values[r])}")
    return lines, np.frombuffer(ints, dtype=np.int64).reshape(-1, (width or lead + 2) - 2), values


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


def write_table(path, *blocks: np.ndarray) -> None:
    """Write one comma-separated line per row of the 2-d ``blocks`` put
    side by side, each value as its ``repr``."""
    rows = np.concatenate([b.astype(object) for b in blocks], axis=1).tolist()
    with open(path, "w") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
