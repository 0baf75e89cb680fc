"""Reference results computed from the generated arrays with LAPACK.

Nothing here calls sisfit's eigensolver: fiber and block Gramians are
formed from the in-memory samples and decomposed with
``numpy.linalg.eigvalsh``.  Errors are sums of discarded eigenvalues
(times the cell volume on a spectral grid), so they are compared with a
tolerance of 1e-10 * (1 + energy).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import Discrete, Spectral, translations

REL_TOL = 1e-10

# which generated input each regime's rows are computed from
ROLE = {"sis": "data", "extra": "data", "pw": "pw", "discrete": "seqs"}


def _gram_eigs(blocks: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of f f^H for a stack of fibers (..., m, c)."""
    gm = blocks @ np.conj(np.swapaxes(blocks, -1, -2))
    return np.linalg.eigvalsh(gm)[..., ::-1]


def _merged_tail(block_eigs: list, rank: int):
    """Discarded sum and per-block kept counts after keeping the global
    top ``rank`` of several blocks' eigenvalues (ties: block, then rank)."""
    records = sorted(
        (-float(lam), b, j) for b, eigs in enumerate(block_eigs) for j, lam in enumerate(eigs)
    )
    alloc = [0] * len(block_eigs)
    for _, b, _ in records[:rank]:
        alloc[b] += 1
    return -sum(r[0] for r in records[rank:]), alloc


class Reference:
    """Expected rows, keyed like the workloads' ``Op.expect`` entries:
    ("sis", rank), ("extra", rank), ("pw", rank, box), ("discrete", rank).
    Each value is a dict with ``error`` and, where the regime has them,
    ``tail`` and ``allocation``."""

    def __init__(self, inputs: dict, keys):
        self.rows = {}
        self.energy = {}
        for key in keys:
            item = inputs[ROLE[key[0]]]
            self.energy[key] = item.energy()
            self.rows[key] = getattr(self, "_" + key[0])(item, *key[1:])

    def _sis(self, data: Spectral, rank: int) -> dict:
        fibers = np.transpose(data.samples, (1, 0, 2))  # (cells, m, k)
        lam = _gram_eigs(fibers)
        return {"error": float(lam[:, rank:].sum()) * data.cell_volume}

    def _extra(self, data: Spectral, rank: int) -> dict:
        # the only lattice the workloads use is 2Z in one dimension:
        # its cosets are the even and the odd translations
        kk = translations(data.dim, data.trunc)[:, 0]
        fibers = np.transpose(data.samples, (1, 0, 2))
        per_block = [_gram_eigs(fibers[:, :, kk % 2 == parity]) for parity in (0, 1)]
        total = 0.0
        for g in range(fibers.shape[0]):
            total += _merged_tail([eigs[g] for eigs in per_block], rank)[0]
        return {"error": total * data.cell_volume}

    def _pw(self, data: Spectral, rank: int, box: int) -> dict:
        kk = translations(data.dim, data.trunc)
        inbox = np.abs(kk).max(axis=1) <= box
        w = (np.abs(data.samples) ** 2).sum(axis=0)  # (cells, k)
        w_in = -np.sort(-w[:, inbox], axis=1)
        return {
            "error": float(w_in[:, rank:].sum()) * data.cell_volume,
            "tail": float(w[:, ~inbox].sum()) * data.cell_volume,
        }

    def _discrete(self, seqs: Discrete, rank: int) -> dict:
        # coset labels of a diagonal lattice, lexicographic by residue,
        # which is the section order sisfit documents
        (a, _), (_, b) = seqs.basis
        label = (seqs.positions[:, 0] % a) * b + (seqs.positions[:, 1] % b)
        eigs = [_gram_eigs(seqs.values[:, label == sigma]) for sigma in range(a * b)]
        error, alloc = _merged_tail(eigs, rank)
        return {"error": error, "allocation": alloc}

    def close(self, key, field: str, value: float) -> bool:
        return abs(value - self.rows[key][field]) <= REL_TOL * (1.0 + self.energy[key])


def check_model(ref: Reference, key, model_dir: Path) -> list[str]:
    """Compare a fit's ``model.json`` with the reference row."""
    meta = json.loads((model_dir / "model.json").read_text())
    problems = []
    for field in ("error", "tail"):
        if field in ref.rows[key] and not ref.close(key, field, float(meta[field])):
            problems.append(f"{key} {field} {meta[field]!r} vs oracle {ref.rows[key][field]!r}")
    want = ref.rows[key].get("allocation")
    if want is not None and meta.get("allocation") != want:
        problems.append(f"{key} allocation {meta.get('allocation')} vs oracle {want}")
    return problems


def parse_compare(stdout: str) -> dict:
    """Rows of the ``compare`` table as {key: {"error", "tail"}}; blank box
    and tail columns are absent from the split."""
    rows = {}
    lines = stdout.splitlines()
    for line in lines[1:]:
        if line.startswith("defect:"):
            continue
        tok = line.split()
        if len(tok) == 6:
            rows[(tok[0], int(tok[1]), int(tok[2]))] = {"error": float(tok[3]), "tail": float(tok[4])}
        elif len(tok) == 4:
            rows[(tok[0], int(tok[1]))] = {"error": float(tok[2])}
    return rows


def check_compare(ref: Reference, keys, stdout: str) -> list[str]:
    """The printed table must hold exactly the expected rows, each within
    tolerance of the oracle, and no defect lines."""
    rows = parse_compare(stdout)
    problems = [line for line in stdout.splitlines() if line.startswith("defect:")]
    if set(rows) != set(keys):
        problems.append(f"table rows {sorted(rows)} vs expected {sorted(keys)}")
        return problems
    for key in keys:
        for field, value in rows[key].items():
            if not ref.close(key, field, value):
                problems.append(f"{key} {field} {value!r} vs oracle {ref.rows[key][field]!r}")
    return problems


def check_brute_force(ref: Reference, seqs: Discrete, rank: int) -> list[str]:
    """sisfit's exhaustive allocation search must agree with the greedy
    LAPACK reference at ``rank``."""
    from sisfit import DiscreteDataset, DiscretePartition, brute_force_optimal, make_dual_lattice

    ds = DiscreteDataset(dim=2, support=seqs.positions, values=seqs.values)
    part = DiscretePartition.from_lattice(make_dual_lattice(np.array(seqs.basis)))
    err, alloc = brute_force_optimal(ds, part, rank)
    key = ("discrete", rank)
    problems = []
    if not ref.close(key, "error", err):
        problems.append(f"brute force error {err!r} vs oracle {ref.rows[key]['error']!r}")
    if list(alloc) != ref.rows[key]["allocation"]:
        problems.append(f"brute force allocation {list(alloc)} vs oracle {ref.rows[key]['allocation']}")
    return problems
