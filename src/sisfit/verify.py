"""Re-checking a fitted model against its data.

Every check of ``sisfit verify`` lives here.  ``verify_model`` runs the
checks of a model's regime and returns one ``VerificationReport``:

- ``sis``: ``parseval``, ``residual-identity``, ``cell-residuals``,
  ``eigencurves``; ``extra`` adds ``coset-support``;
- ``pw``: ``tile-count``, ``tile-box``, ``tile-distinct``,
  ``orthonormal``, ``residual-identity``, ``cell-residuals``, ``tail``,
  in a box the grid holds (``multitile._check_box`` refuses others);
  ``orthonormal`` is the verdict of the three tile checks, and no
  generator fiber is built;
- ``discrete``: ``orthonormal``, ``block-support``, ``residual-identity``,
  ``eigenvalues``.

Every check runs over all cells at once; only loops that report violations
visit cells.  ``sis._project``, ``_deviation`` and ``_misnumbered`` are the
one projection, orthonormality test (of ``parseval`` and the discrete
``orthonormal``) and block-numbering rule, and
``_check_eigenvalues`` the one test of each kept eigenvalue against the
projection coefficients (in ``eigencurves`` and ``eigenvalues``); ``coset-span``
keeps the stacked SVD basis above lstsq's cutoff eps * max(T, r) * sigma_max.
``_check_homes`` is the one check of the home block and in-block rank
records that extra and discrete fits share (``coset-support``,
``block-support``); ``block-support`` adds only the label list and the
stored ``allocation``.

Tolerances are 1e-8 relative: to 1 + the total energy for totals, to
1 + the cell energy (without the cell volume) for per-cell values.  A
NaN fails every check it enters (loading rejects one in any file).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blas import one_blas_thread
from .discrete import DiscreteDataset, DiscreteModel, DiscretePartition, _unique_rows
from .errors import ValidationError
from .extra import ExtraInvariantModel
from .lattice import DualLattice, coset_of
from .multitile import MultiTileModel, _check_box
from .sis import FittedModel, _fibers, _project
from .spectral import SpectralDataset, _energy, _finite_energy, _squares, check_same_grid

MAX_REPORTED_VIOLATIONS = 64

TOL = 1e-8


@dataclass
class Violation:
    """One failed instance of a check, at a cell and/or generator when
    the check has them."""

    check: str
    detail: str
    cell: int | None = None
    generator: int | None = None

    def __str__(self):
        where = [
            f"{name} {i}"
            for name, i in (("cell", self.cell), ("generator", self.generator))
            if i is not None
        ]
        if not where:
            return f"[{self.check}] {self.detail}"
        return f"[{self.check}] {', '.join(where)}: {self.detail}"


@dataclass
class VerificationReport:
    """Outcome of a model check: which checks ran and what failed.

    ``violations`` keeps at most ``MAX_REPORTED_VIOLATIONS`` per check;
    ``n_violations`` is the full count.
    """

    checks: list[str] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    n_violations: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, check: str, detail: str, cell: int | None = None,
            generator: int | None = None) -> None:
        """Record one violation of ``check``."""
        n = self.counts.get(check, 0)
        self.counts[check] = n + 1
        self.n_violations += 1
        if n < MAX_REPORTED_VIOLATIONS:
            self.violations.append(Violation(check, detail, cell, generator))

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    @property
    def failed(self) -> list[str]:
        """The checks with violations, in the order they ran."""
        return [c for c in self.checks if self.counts.get(c)]

    def violations_of(self, check: str) -> list[Violation]:
        return [v for v in self.violations if v.check == check]

    def __str__(self):
        head = "passed" if self.passed else f"FAILED ({self.n_violations} violations)"
        lines = [f"verification {head}; checks: {', '.join(self.checks)}"]
        lines += [str(v) for v in self.violations]
        if self.n_violations > len(self.violations):
            lines.append(f"... and {self.n_violations - len(self.violations)} more")
        return "\n".join(lines)


@one_blas_thread
def verify_model(model, data, partition: DiscretePartition | None = None) -> VerificationReport:
    """Run every check of the model's regime against ``data`` (a
    ``SpectralDataset``, or a ``DiscreteDataset`` with the model's
    ``partition``).  Data that do not fit the model (another grid or
    dimension) raise ValidationError."""
    report = VerificationReport()
    if isinstance(model, DiscreteModel):
        if partition is None:
            raise ValidationError("verifying a discrete model needs its partition")
        _check_discrete(report, model, data, partition)
    elif isinstance(model, MultiTileModel):
        _check_pw(report, model, data)
    else:
        _check_spectral(report, model, data)
    return report


def _deviation(rows: np.ndarray) -> np.ndarray:
    """Per matrix of the stack ``rows`` (..., n, columns): the largest entry
    of |rows rows^H - diag(live)|, ``live`` marking the nonzero rows."""
    with np.errstate(invalid="ignore"):  # a non-finite entry: inf * 0 gives the NaN that fails the check
        gram = rows @ rows.conj().swapaxes(-1, -2) - np.eye(rows.shape[-2]) * np.any(rows != 0, axis=-1)[..., None]
    return np.abs(gram).max(axis=(-2, -1), initial=0.0)


def _misnumbered(block: np.ndarray, rank: np.ndarray, n_blocks: int) -> np.ndarray:
    """Rows of (rows, slots) block and in-block rank tables where the ranks
    of a block 0..n_blocks-1 are not count distinct values in 0..count-1,
    or rank -1 is not exactly at block -1 (no block)."""
    same = block[:, :, None] == block[:, None, :]
    twice = (same & (rank[:, :, None] == rank[:, None, :])).sum(axis=2) > 1
    ok = np.where(block == -1, rank == -1,
                  (block >= 0) & (block < n_blocks) & (rank >= 0) & (rank < same.sum(axis=2)) & ~twice)
    return ~ok.all(axis=1)


def _close(report: VerificationReport, check: str, got: float, want: float, tol: float,
           detail: str) -> None:
    """The total check ``check``: ``got`` within ``tol`` of ``want``."""
    report.checks.append(check)
    if not abs(got - want) <= tol:
        report.add(check, detail)


def _cells_close(report: VerificationReport, check: str, got, want, tol, what: str) -> None:
    """The per-cell check ``check``: at every cell g, ``got[g]`` (the
    model's ``what``) within ``tol[g]`` of ``want[g]``."""
    report.checks.append(check)
    for g in np.flatnonzero(~(np.abs(got - want) <= tol)):
        report.add(check, f"{what} {float(got[g])!r}, expected {float(want[g])!r}", cell=int(g))


def _check_spectral(report: VerificationReport, model: FittedModel, ds: SpectralDataset) -> None:
    check_same_grid(model.grid, ds.grid)
    with np.errstate(over="ignore"):  # data whose energy overflows are refused here, before any use
        squares = _squares(ds)  # one pass: the energy and cell_energy below are total_energy's and _weights'
        energy = _finite_energy(_energy(squares, ds.grid.cell_volume), ds.grid.cell_volume)
    cell_energy = squares.sum(axis=0).sum(axis=1)

    fibers = _fibers(model)
    report.checks.append("parseval")
    dev = _deviation(fibers)
    for g in np.flatnonzero(~(dev <= TOL)):
        report.add("parseval", f"orthonormality deviation {dev[g]:.3e}", cell=int(g))

    # project_onto's sums, without the projected dataset, which would refuse a NaN
    with np.errstate(invalid="ignore"):
        coef, _, rr = _project(ds.samples.transpose(1, 0, 2), fibers)
    cell_resid = rr.sum(axis=1)
    total = float((rr.sum(axis=0) * ds.grid.cell_volume).sum())
    _close(report, "residual-identity", total, model.error, TOL * (1.0 + energy),
           f"projection residual {total!r} vs stored error {model.error!r}")

    tol = TOL * (1.0 + cell_energy)
    _cells_close(report, "cell-residuals", model.residuals, cell_resid, tol, "stored residual")
    # kept plus discarded eigenvalues add up to the Gramian trace; the
    # discarded part is taken from the projection, not from residuals.csv,
    # so that a wrong residual fails cell-residuals alone; and each kept
    # eigenvalue is the energy of the data along its generator
    _cells_close(report, "eigencurves", model.eigenvalues.sum(axis=1) + cell_resid, cell_energy, tol,
                 "eigenvalue sum plus projection residual")
    _check_eigenvalues(report, "eigencurves", model.eigenvalues, coef, tol)

    if isinstance(model, ExtraInvariantModel):
        _check_cosets(report, model, model.lattice)


def _check_eigenvalues(report: VerificationReport, check: str, lams: np.ndarray, coef: np.ndarray, tol,
                       per_cell: bool = True) -> None:
    """Violations of ``check`` where a kept eigenvalue ``lams[g, s]`` is not
    the energy of the data along generator s at cell g, the sum over j of
    |coef[g, j, s]|^2 (``_project``'s coefficients), within ``tol[g]``, or
    where a cell's eigenvalues do not descend; the cell is named when
    ``per_cell``."""
    with np.errstate(invalid="ignore"):  # as in the projection: a non-finite coefficient fails the check
        along = (coef.real**2 + coef.imag**2).sum(axis=1)
    if np.shape(lams) != along.shape:
        raise ValidationError(f"eigenvalue table shape {np.shape(lams)} does not match the generator array")
    for g, s in np.argwhere(~(np.abs(lams - along) <= tol[:, None])):
        report.add(check, f"eigenvalue {float(lams[g, s])!r}, expected {float(along[g, s])!r}",
                   cell=int(g) if per_cell else None, generator=int(s))
    for g, s in np.argwhere(~(lams[:, :-1] >= lams[:, 1:])):
        report.add(check, f"eigenvalue {float(lams[g, s + 1])!r} exceeds the one before, {float(lams[g, s])!r}",
                   cell=int(g) if per_cell else None, generator=int(s) + 1)


def _check_homes(report: VerificationReport, check: str, samples: np.ndarray, blocks: np.ndarray, home, ranks,
                 n_blocks: int, points: np.ndarray, place: str, noun: str, per_cell: bool = True) -> None:
    """``coset-support`` (extra) or ``block-support`` (discrete): the
    samples of each generator, ``samples`` (generators, cells, columns),
    are finite and exactly zero off its home block, ``blocks`` giving the
    block of each column (-1, uncovered, is no home, the padded -1
    included); then ``_misnumbered`` on the (cells, generators) ``home``
    and ``ranks``.  Violations name a column as the ``place``
    ``points[k]``, a block as a ``noun``, and the cell when ``per_cell``."""
    report.checks.append(check)
    home, ranks = np.asarray(home), np.asarray(ranks)
    if home.shape != ranks.shape or home.T.shape != samples.shape[:2]:
        raise ValidationError(f"home {noun} table shape {home.shape} does not match the generator array")
    # bad[s, g, k]: generator s at cell g is nonzero off its home block, or not finite
    bad = ((samples != 0) & ((blocks != home.T[:, :, None]) | (blocks < 0))) | ~np.isfinite(samples)
    for s, g in np.argwhere(bad.any(axis=2)):
        k = np.argmax(bad[s, g])
        at, z = tuple(points[k].tolist()), samples[s, g, k]
        what = (f"nonzero sample at {place} {at} ({noun} {blocks[k]}) outside home {noun} {home[g, s]}"
                if np.isfinite(z) else f"non-finite sample {z} at {place} {at}")
        report.add(check, what, cell=int(g) if per_cell else None, generator=int(s))
    for g in np.flatnonzero(_misnumbered(home, ranks, n_blocks)):
        report.add(check, f"in-block ranks {ranks[g].tolist()} of home {noun}s {home[g].tolist()} "
                   f"do not run 0..count-1", cell=int(g) if per_cell else None)


def _check_cosets(report: VerificationReport, model: FittedModel, lat: DualLattice) -> None:
    grid = model.grid
    labels = coset_of(grid.translations, lat)
    fibers = _fibers(model)

    if hasattr(model, "home_cosets"):
        _check_homes(report, "coset-support", fibers.transpose(1, 0, 2), labels, model.home_cosets,
                     model.block_ranks, lat.index, grid.translations, "translation", "coset")
        return

    report.checks += ["coset-support", "coset-span"]
    # cuts[g, s, i]: generator s at cell g restricted to coset present[i];
    # a coset holding no translation of the grid cuts nothing
    present = np.unique(labels)
    cuts = np.where(labels == present[:, None], fibers[:, :, None, :], 0.0)
    touched = (cuts != 0).any(axis=3)
    for g, s in np.argwhere(touched.sum(axis=2) > 1):
        report.add("coset-support", f"support touches cosets {present[touched[g, s]].tolist()}",
                   cell=int(g), generator=int(s))
    # each cell's span basis: the right singular vectors above lstsq's
    # default cutoff, so that the residual is the one lstsq leaves; taken
    # without the non-finite samples, whose cuts leave a NaN residual
    _, sing, vh = np.linalg.svd(np.where(np.isfinite(fibers), fibers, 0.0), full_matrices=False)
    cutoff = np.finfo(np.float64).eps * max(fibers.shape[1:]) * sing[:, :1]
    basis = np.where((sing > cutoff)[:, :, None], vh, 0.0)
    with np.errstate(invalid="ignore"):
        rr = _project(cuts.reshape(len(cuts), -1, cuts.shape[3]), basis)[2].reshape(touched.shape)
    resid, norm_cut = np.sqrt(rr), np.sqrt((cuts.real**2 + cuts.imag**2).sum(axis=3))
    for g, s, i in np.argwhere((norm_cut != 0.0) & ~(resid <= TOL * norm_cut)):
        report.add("coset-span", f"coset {present[i]} cut leaves the generator span (relative residual "
                   f"{resid[g, s, i] / norm_cut[g, s, i]:.3e})", cell=int(g), generator=int(s))


@one_blas_thread
def verify_extra_invariance(model: FittedModel, lat: DualLattice) -> VerificationReport:
    """Check that a model's generators respect the coset structure.

    Models carrying a home-coset table are held to finite samples that
    are exact zeros outside each generator's home coset, and to in-block
    ranks that run 0..count-1 within each home coset of a cell
    (``coset-support``).
    Other models pass if no generator fiber touches two cosets
    (``coset-support``) and, at every cell, the restriction of each
    generator fiber to any single coset stays in the span of that cell's
    generator fibers within 1e-8 relative residual (``coset-span``), the
    residual a least-squares solve with lstsq's default cutoff leaves.
    """
    report = VerificationReport()
    _check_cosets(report, model, lat)
    return report


def _check_tiles(report: VerificationReport, model: MultiTileModel) -> None:
    box = _check_box(model.grid, model.rank, model.box_radius)  # the fit's and the loader's box rule
    chosen, ncells = np.asarray(model.chosen), model.grid.n_cells
    if chosen.ndim != 3 or chosen.shape[0] != ncells or chosen.shape[2] != model.grid.dim:
        raise ValidationError(f"chosen array shape {chosen.shape} does not match the grid")
    # "orthonormal" is the verdict of the three tile checks: one-hot rows at
    # distinct picks in a box the grid holds have the identity as Gram matrix
    report.checks += ["tile-count", "tile-box", "tile-distinct", "orthonormal"]
    if chosen.shape[1] != model.rank:
        for g in range(ncells):
            report.add("tile-count", f"{chosen.shape[1]} translations, expected {model.rank}", cell=g)
    for g, s in np.argwhere(np.abs(chosen).max(axis=2) > box):
        v = tuple(int(x) for x in chosen[g, s])
        report.add("tile-box", f"translation {v} outside box radius {box}", cell=int(g), generator=int(s))
    # same[g, s, t]: cell g picks the same translation in slots s and t
    same = (chosen[:, :, None, :] == chosen[:, None, :, :]).all(axis=3)
    for g in np.flatnonzero(same.sum(axis=2).max(axis=1, initial=0) > 1):
        v = tuple(int(x) for x in chosen[g, np.flatnonzero(same[g].sum(axis=1) > 1)[0]])
        report.add("tile-distinct", f"translation {v} chosen more than once", cell=int(g))


def _check_pw(report: VerificationReport, model: MultiTileModel, ds: SpectralDataset) -> None:
    check_same_grid(model.grid, ds.grid)
    with np.errstate(over="ignore"):  # as in _check_spectral
        squares = _squares(ds)
        energy = _finite_energy(_energy(squares, ds.grid.cell_volume), ds.grid.cell_volume)
    w_all = squares.sum(axis=0)
    _check_tiles(report, model)

    inbox = np.abs(ds.grid.translations).max(axis=1) <= model.box_radius
    ingrid = ~ds.grid._outside(model.chosen)  # a pick outside the grid keeps nothing
    picks = ds.grid.translation_indices(np.where(ingrid[..., None], model.chosen, 0))
    kept = np.where(ingrid, np.take_along_axis(w_all, picks, axis=1), 0.0).sum(axis=1)
    cell_resid = w_all[:, inbox].sum(axis=1) - kept
    err = float(cell_resid.sum()) * ds.grid.cell_volume
    tail = float(w_all[:, ~inbox].sum()) * ds.grid.cell_volume
    tol = TOL * (1.0 + energy)
    _close(report, "residual-identity", err, model.error, tol,
           f"recomputed error {err!r} vs stored {model.error!r}")
    _cells_close(report, "cell-residuals", model.residuals, cell_resid,
                 TOL * (1.0 + w_all.sum(axis=1)), "stored residual")
    _close(report, "tail", tail, model.tail, tol, f"recomputed tail {tail!r} vs stored {model.tail!r}")


def _check_discrete(report: VerificationReport, model: DiscreteModel, ds: DiscreteDataset,
                    part: DiscretePartition) -> None:
    if ds.dim != model.dim:
        raise ValidationError(f"data dimension {ds.dim} does not match model dimension {model.dim}")
    with np.errstate(over="ignore"):  # as in _check_spectral, without a cell volume
        energy = _finite_energy(float(ds.energies().sum()), 1.0)
    gens = model.generators

    dev = float(_deviation(gens[None])[0])
    _close(report, "orthonormal", dev, 0.0, TOL, f"generator Gramian deviates by {dev:.3e}")

    _check_homes(report, "block-support", gens[:, None], part._block_indices(model.support), model.home_blocks,
                 model.block_ranks, part.n_blocks, model.support, "position", "block", per_cell=False)
    labels = [str(lab) for lab in part.labels]
    if [str(lab) for lab in model.labels] != labels:
        report.add("block-support", f"labels {model.labels} differ from the partition's {labels}")
    home = np.asarray(model.home_blocks)
    counts = np.bincount(home[(home >= 0) & (home < part.n_blocks)], minlength=part.n_blocks).tolist()
    if list(model.allocation) != counts:
        report.add("block-support", f"allocation {list(model.allocation)} differs from the record counts {counts}")

    # explicit projection residual over the union of supports
    # (columns in lexicographic order of the positions)
    union, _, col = _unique_rows(np.concatenate([ds.support, model.support]))
    rows = np.zeros((ds.m + gens.shape[0], len(union)), dtype=np.complex128)
    rows[: ds.m, col[: ds.n_points]] = ds.values
    rows[ds.m :, col[ds.n_points :]] = gens
    coef, _, rr = _project(rows[None, : ds.m], rows[None, ds.m :])  # coef[0, j, s] = <f_j, g_s>
    total = float(rr.sum())
    _close(report, "residual-identity", total, model.error, TOL * (1.0 + energy),
           f"projection residual {total!r} vs stored {model.error!r}")

    report.checks.append("eigenvalues")
    _check_eigenvalues(report, "eigenvalues", np.asarray(model.eigenvalues), coef, np.array([TOL * (1.0 + energy)]),
                       per_cell=False)
