"""Seeded workloads: inputs, the CLI commands of one pass, and their checks.

Inputs are drawn from ``numpy.random.default_rng`` keyed by (workload,
seed) and written with sisfit's own writers, so the same seed always gives
the same files.  Run as a script to write one workload's inputs; the
benchmark times that script in a fresh process to measure set-up:

    python3 perfbench/workloads.py --workload sis-fibers --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NAMES = ("sis-fibers", "extra-wide", "text-io")


def require_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path.

    The benchmark measures the source tree it sits in, never an installed
    copy, so a checkout without ``src/sisfit`` is an error.
    """
    if not (SRC / "sisfit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sisfit source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def translations(dim: int, trunc: int) -> np.ndarray:
    """Integer vectors with max-norm <= trunc, lexicographic (the layout
    sisfit documents for the translation axis)."""
    return np.array(list(itertools.product(range(-trunc, trunc + 1), repeat=dim)), dtype=np.int64)


@dataclass(frozen=True)
class Spectral:
    """A spectral dataset as generated: samples[j, g, k] on a grid."""

    dim: int
    cells: int
    trunc: int
    samples: np.ndarray

    @property
    def cell_volume(self) -> float:
        return 1.0 / self.cells**self.dim

    def energy(self) -> float:
        return float((np.abs(self.samples) ** 2).sum()) * self.cell_volume


@dataclass(frozen=True)
class Discrete:
    """Sequences on a dense box of positions; zero where not sampled."""

    positions: np.ndarray
    values: np.ndarray
    basis: tuple  # partition lattice, rows

    def energy(self) -> float:
        return float((np.abs(self.values) ** 2).sum())


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _spectral(rng, dim, cells, trunc, m) -> Spectral:
    kk = translations(dim, trunc)
    envelope = 1.0 / (1.0 + (kk**2).sum(axis=1))
    samples = _complex_normal(rng, (m, cells**dim, kk.shape[0])) * envelope
    return Spectral(dim=dim, cells=cells, trunc=trunc, samples=samples)


def generate(name: str, seed: int) -> dict:
    """The workload's input data, a dict of Spectral/Discrete by role."""
    rng = np.random.default_rng([NAMES.index(name), int(seed)])
    if name == "sis-fibers":
        base = _spectral(rng, dim=2, cells=6, trunc=3, m=6)
        s = base.samples
        # two fixed combinations make every fiber Gramian rank 6 of order 8,
        # so the eigensolver's clamp of tiny negative eigenvalues runs
        f6 = 0.5 * s[0] - 1.25 * s[3] + 0.75j * s[5]
        f7 = s[1] + s[2] - 0.5 * s[4]
        samples = np.concatenate([s, f6[None], f7[None]])
        return {"data": Spectral(dim=2, cells=6, trunc=3, samples=samples)}
    if name == "extra-wide":
        return {"data": _spectral(rng, dim=1, cells=16, trunc=6, m=16)}
    if name == "text-io":
        pw = _spectral(rng, dim=2, cells=12, trunc=3, m=4)
        axis = np.arange(-15, 15)
        positions = np.array(list(itertools.product(axis, axis)), dtype=np.int64)
        values = _complex_normal(rng, (6, positions.shape[0]))
        values *= rng.random(values.shape) < 0.85
        seqs = Discrete(positions=positions, values=values, basis=((3, 0), (0, 2)))
        return {"pw": pw, "seqs": seqs}
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name: str, seed: int, out_dir) -> None:
    """Generate and write one workload's inputs with sisfit's writers."""
    from sisfit import discrete, spectral

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for role, item in generate(name, seed).items():
        if isinstance(item, Spectral):
            grid = spectral.SpectralGrid(dim=item.dim, cells_per_dim=item.cells, trunc_radius=item.trunc)
            ds = spectral.SpectralDataset(grid=grid, samples=item.samples)
            fmt = spectral.PAYLOAD_CSV if name == "text-io" else spectral.PAYLOAD_BINARY
            spectral.write_dataset(ds, out, payload_format=fmt, stem=role)
        else:
            discrete.write_discrete_sequences(item.positions, item.values, out / f"{role}.txt")
            rows = ";".join(",".join(str(x) for x in row) for row in item.basis)
            (out / "partition.txt").write_text(f"lattice: {rows}\n")


def digest(directory, skip=()) -> str:
    """SHA-256 over the names and bytes of every file below ``directory``
    whose name is not in ``skip``."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name not in skip):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass.

    ``metric`` is the end-to-end metric its wall time adds to.  ``expect``
    names the oracle rows the command must reproduce: for a fit the single
    model it writes, for ``compare`` every row of the printed table.
    ``model`` is the model directory a fit writes; ``same_as`` names the
    fit whose files this one must match byte for byte.  ``repeat`` runs a
    command that takes milliseconds several times per pass, so that it
    gets as many samples as it needs.
    """

    metric: str
    argv: tuple
    expect: tuple = ()
    model: str | None = None
    same_as: str | None = None
    repeat: int = 1

    @property
    def kind(self) -> str:
        return self.argv[0]

    def resolve(self, inputs: Path, models: Path) -> list[str]:
        return [a.format(inputs=inputs, models=models) for a in self.argv]


def _fit_pair(regime_args, data, key, model):
    """A fit and its ``--threads 2`` twin, which must write the same bytes."""
    fit = ("fit",) + regime_args + ("--data", data)
    return [
        Op("fit_s", fit + ("--out", f"{{models}}/{model}"), expect=(key,), model=model),
        Op(
            "fit_threads2_s",
            fit + ("--threads", "2", "--out", f"{{models}}/{model}-t2"),
            expect=(key,),
            model=f"{model}-t2",
            same_as=model,
        ),
    ]


def _verify(model, data, repeat=1):
    return Op("verify_s", ("verify", "--model", f"{{models}}/{model}", "--data", data), repeat=repeat)


def ops(name: str) -> list[Op]:
    """Commands of one pass, in the order they run."""
    if name == "sis-fibers":
        data = "{inputs}/data.json"
        return _fit_pair(("--regime", "sis", "--rank", "3"), data, ("sis", 3), "sis") + [
            _verify("sis", data, repeat=10),
            Op(
                "sweep_s",
                ("compare", "--data", data, "--regimes", "sis", "--ranks", "1,3"),
                expect=(("sis", 1), ("sis", 3)),
            ),
        ]
    if name == "extra-wide":
        data = "{inputs}/data.json"
        regime = ("--regime", "extra", "--rank", "4", "--dual-lattice", "2")
        return _fit_pair(regime, data, ("extra", 4), "extra") + [
            _verify("extra", data, repeat=10),
            Op(
                "sweep_s",
                ("compare", "--data", data, "--regimes", "sis,extra", "--ranks", "4", "--dual-lattice", "2"),
                expect=(("sis", 4), ("extra", 4)),
            ),
        ]
    if name == "text-io":
        pw = "{inputs}/pw.json"
        seqs = "{inputs}/seqs.txt"
        part = ("--partition", "{inputs}/partition.txt")
        pw_rows = tuple(("pw", r, b) for r in (1, 3) for b in (1, 2, 3))
        return (
            _fit_pair(("--regime", "pw", "--rank", "3", "--box", "2"), pw, ("pw", 3, 2), "pw")
            + [
                _verify("pw", pw),
                Op("sweep_s", ("compare", "--data", pw, "--regimes", "pw", "--ranks", "1,3", "--boxes", "1,2,3"),
                   expect=pw_rows),
            ]
            + _fit_pair(("--regime", "discrete", "--rank", "4") + part, seqs, ("discrete", 4), "discrete")
            + [
                _verify("discrete", seqs),
                Op("sweep_s", ("compare", "--data", seqs, "--regimes", "discrete", "--ranks", "1,2,4") + part,
                   expect=(("discrete", 1), ("discrete", 2), ("discrete", 4))),
            ]
        )
    raise ValueError(f"unknown workload {name!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    require_source_tree()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
