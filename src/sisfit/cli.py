"""Command line interface.

Four subcommands: ``synth`` writes sampled datasets, ``fit`` fits one
regime and saves a model directory, ``verify`` re-checks a saved model
against data, ``compare`` sweeps regimes and ranks and flags defects.
Exit codes: 0 success, 1 verification failure or defect, 2 usage or
input errors.  Reports are ``key: value`` lines; apart from the timing
line they are byte-identical across reruns.  ``--threads`` is accepted by
``fit`` and ``compare`` and has no effect.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .discrete import fit_discrete, parse_discrete_dataset, parse_partition, spectra_discrete
from .errors import EnergyOverflow, SisfitError, ValidationError
from .extra import fit_extra_invariant, spectra_extra
from .lattice import make_dual_lattice, parse_basis
from .multitile import fit_multitile, sweep_multitile
from .sis import error_at_rank, fit_sis, spectra_sis
from .spectral import (
    _FAMILY_PARAM,
    _finite_energy,
    PAYLOAD_BINARY,
    PAYLOAD_CSV,
    SpectralGrid,
    ingest,
    synthesize,
    total_energy,
    write_dataset,
)
from .table import copy_file, create, read_object
from .verify import verify_model
from . import storage

OUT_ENV = "SISFIT_OUT"

THREADS_HELP = "accepted for compatibility, must be at least 1; has no effect"


def _out_dir(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get(OUT_ENV)
    return Path(env) if env else Path(".")


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of ``text``, the value of ``flag``; errors name the flag."""
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"{flag}: expected a comma-separated integer list, got {text!r}") from None
    if not vals:
        raise ValidationError(f"{flag}: empty integer list")
    return vals


def cmd_synth(args) -> int:
    family = args.family
    if family not in _FAMILY_PARAM:
        raise ValidationError(f"unknown family {family!r} (known: {', '.join(sorted(_FAMILY_PARAM))})")
    pname = _FAMILY_PARAM[family]
    param = getattr(args, pname)
    if param is None:
        raise ValidationError(f"family {family!r} needs --{pname}")
    for other, flag in _FAMILY_PARAM.items():
        if other != family and getattr(args, flag) is not None:
            raise ValidationError(f"--{flag} only applies to the {other!r} family")
    grid = SpectralGrid(dim=args.dim, cells_per_dim=args.cells, trunc_radius=args.trunc)
    ds = synthesize(family, [param], grid)
    manifest = write_dataset(ds, _out_dir(args), payload_format=args.payload_format, stem=args.stem)
    print(f"manifest: {manifest}")
    return 0


def _require(args, flag: str, regime: str):
    val = getattr(args, flag.replace("-", "_"))
    if val is None:
        raise ValidationError(f"regime {regime!r} needs --{flag}")
    return val


def _data(args, regime: str):
    """The ``--data`` of ``regime``: a sequence table for discrete data,
    whose partition the caller reads, else a manifest."""
    return parse_discrete_dataset(args.data) if regime == "discrete" else ingest(args.data)


def _load(args, regime: str):
    """The ``--data`` of ``regime``: (dataset, energy, cell volume).  Data
    whose energy overflows float64 are refused here (``_finite_energy``);
    ``verify`` refuses them where its checks form the squares, so that it
    forms them once."""
    discrete = regime == "discrete"
    ds = _data(args, regime)
    volume = 1.0 if discrete else ds.grid.cell_volume
    with np.errstate(over="ignore"):
        energy = float(ds.energies().sum()) if discrete else total_energy(ds)
    return ds, _finite_energy(energy, volume), volume


# regime-specific flags of ``fit`` and ``compare``, and their regime
_FLAG_REGIMES = (("dual-lattice", "extra"), ("box", "pw"), ("boxes", "pw"), ("partition", "discrete"))


def _check_fit_flags(args, regimes) -> None:
    """Reject a regime-specific flag given without its regime."""
    for flag, regime in _FLAG_REGIMES:
        if regime not in regimes and getattr(args, flag.replace("-", "_"), None) is not None:
            names = ", ".join(repr(r) for r in regimes)
            raise ValidationError(f"--{flag} only applies to regime {regime!r}, not to {names}")


def cmd_fit(args) -> int:
    regime = args.regime
    _check_fit_flags(args, [regime])
    t0 = time.perf_counter()
    ds, energy, _ = _load(args, regime)
    pairs = [("regime", regime), ("rank", args.rank)]
    if regime == "discrete":
        part = parse_partition(_require(args, "partition", regime), ds.dim)
        model = fit_discrete(ds, part, args.rank)
        pairs += [("dim", ds.dim), ("sequences", ds.m), ("support_points", ds.n_points), ("blocks", part.n_blocks),
                  ("allocation", " ".join(str(a) for a in model.allocation))]
    else:
        pairs += [("grid", f"dim={ds.grid.dim} cells={ds.grid.cells_per_dim} trunc={ds.grid.trunc_radius}"),
                  ("functions", ds.m)]
    pairs.append(("energy", repr(energy)))
    if regime == "sis":
        model = fit_sis(ds, args.rank)
    elif regime == "extra":
        basis = _require(args, "dual-lattice", regime)
        lat = make_dual_lattice(parse_basis(basis))
        model = fit_extra_invariant(ds, lat, args.rank)
        pairs += [("dual_lattice", basis), ("cosets", lat.index)]
    elif regime == "pw":
        model = fit_multitile(ds, args.rank, _require(args, "box", regime))
        pairs.append(("box_radius", model.box_radius))
    pairs.append(("error", repr(model.error)))
    if regime == "pw":
        pairs += [("tail", repr(model.tail)), ("total_unreachable", repr(model.error + model.tail))]
    elapsed = time.perf_counter() - t0
    out = _out_dir(args)
    storage.save_model(model, out)
    if regime == "discrete":
        # keep the partition next to the model so verify is self-contained
        copy_file(args.partition, out / storage.PARTITION_TXT)
    pairs += [("model_dir", str(out)), ("timing_seconds", f"{elapsed:.6f}")]
    lines = [f"{k}: {v}" for k, v in pairs]
    with create(out / "report.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    meta = read_object(Path(args.model) / storage.MODEL_JSON)  # parsed here only: the loader takes it
    regime = storage._regime(meta)
    print(f"regime: {regime}")
    # the data first: a model's grid is checked against theirs before it
    # sizes anything, and a discrete model's dimension before the
    # partition kept next to it is read
    ds = _data(args, regime)
    model, part = storage.load_model(meta, None if regime == "discrete" else ds.grid), None
    if regime == "discrete":
        if model.dim != ds.dim:
            raise ValidationError(f"{Path(args.model) / storage.MODEL_JSON}: field 'dim' is {model.dim}, "
                                  f"but the data's is {ds.dim}")
        part = parse_partition(Path(args.model) / storage.PARTITION_TXT, ds.dim)
    report = verify_model(model, ds, part)
    for check in report.checks:
        print(f"{check}: {'FAIL' if check in report.failed else 'ok'}")
        for v in report.violations_of(check)[:8]:
            print(f"violation: {v}")
    if report.failed:
        print(f"result: FAIL ({', '.join(report.failed)})")
        return 1
    print("result: pass")
    return 0


def cmd_compare(args) -> int:
    regimes = [r.strip() for r in args.regimes.split(",") if r.strip()]
    if not regimes:
        raise ValidationError("empty regime list")
    for r in regimes:
        if r not in storage.REGIMES:
            raise ValidationError(f"unknown regime {r!r} (known: {', '.join(sorted(storage.REGIMES))})")
    if "discrete" in regimes and len(regimes) > 1:
        raise ValidationError("discrete data cannot be compared with spectral regimes")
    _check_fit_flags(args, regimes)
    ranks = _int_list(args.ranks, "--ranks")
    if any(r < 1 for r in ranks):
        raise ValidationError(f"ranks must be positive, got {ranks}")
    boxes = _int_list(args.boxes, "--boxes") if args.boxes else None  # both lists before any data are read

    rows = []  # (regime, rank, box or "", error, tail or "", total)
    defects = []
    ds, energy, volume = _load(args, "discrete" if "discrete" in regimes else "sis")

    by_regime: dict[str, list[float]] = {}
    for regime in regimes:
        if regime == "pw":
            boxes = boxes or [ds.grid.trunc_radius]
            errs = []
            for r, fits in zip(ranks, sweep_multitile(ds, ranks, boxes)):  # one sort per box serves every rank
                totals = [e + t for e, t in fits]
                rows += [("pw", r, b, e, t, tot) for b, (e, t), tot in zip(boxes, fits, totals)]
                _check_monotone(f"pw rank {r}: total", "box", boxes, totals, energy, defects)
                errs.append(totals[-1])
        else:  # one values-only spectrum pass serves every rank
            if regime == "sis":
                lams = spectra_sis(ds)
            elif regime == "extra":
                lams = spectra_extra(ds, make_dual_lattice(parse_basis(_require(args, "dual-lattice", "extra"))))
            else:
                lams = spectra_discrete(ds, parse_partition(_require(args, "partition", regime), ds.dim))
            errs = [error_at_rank(lams, r, volume) for r in ranks]
            rows += [(regime, r, "", e, "", e) for r, e in zip(ranks, errs)]
        by_regime[regime] = errs
        _check_monotone(f"{regime}: error", "rank", ranks, errs, energy, defects)

    if "sis" in by_regime and "extra" in by_regime:
        for r, es, ee in zip(ranks, by_regime["sis"], by_regime["extra"]):
            if ee < es - 1e-12 * energy:
                defects.append(
                    f"rank {r}: extra-invariant error {ee!r} below unconstrained error {es!r}"
                )

    header = f"{'regime':<9} {'rank':>4} {'box':>4} {'error':>24} {'tail':>24} {'total':>24}"
    print(header)
    for regime, r, b, e, t, tot in rows:
        print(f"{regime:<9} {r:>4} {str(b):>4} {e!r:>24} {str(t) if t == '' else repr(t):>24} {tot!r:>24}")
    for d in defects:
        print(f"defect: {d}")
    if args.out:
        with create(args.out) as fh:
            fh.write("regime,rank,box,error,tail,total\n")
            for regime, r, b, e, t, tot in rows:
                fh.write(f"{regime},{r},{b},{e!r},{'' if t == '' else repr(t)},{tot!r}\n")
            for d in defects:
                fh.write(f"# defect: {d}\n")
    return 1 if defects else 0


def _check_monotone(subject: str, noun: str, keys, values, energy: float, defects: list) -> None:
    """Record a defect wherever ``values`` grows along ``keys`` taken in
    increasing order (a larger rank or box never fits worse)."""
    order = np.argsort(keys, kind="stable")
    kk = [keys[i] for i in order]
    vv = [values[i] for i in order]
    for i in range(1, len(kk)):
        if vv[i] > vv[i - 1] + 1e-12 * energy:
            defects.append(f"{subject} grows from {noun} {kk[i - 1]} to {kk[i]} ({vv[i - 1]!r} -> {vv[i]!r})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sisfit",
        description="Fit nearest shift-invariant, extra-invariant, multi-tile and discrete subspaces to sampled spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample a built-in function family onto a grid")
    p.add_argument("--family", required=True, help="gaussian, bspline or boxcar")
    p.add_argument("--sigma", type=float, help="gaussian width, positive")
    p.add_argument("--order", type=float, help="bspline order, nonnegative integer")
    p.add_argument("--halfwidth", type=float, help="boxcar half-width, positive")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--cells", type=int, required=True, help="cells per axis, even")
    p.add_argument("--trunc", type=int, required=True, help="translation truncation radius")
    p.add_argument(
        "--payload-format",
        default=PAYLOAD_BINARY,
        choices=[PAYLOAD_BINARY, PAYLOAD_CSV],
    )
    p.add_argument("--stem", default="dataset", help="basename for manifest and payload")
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or .)")

    p = sub.add_parser("fit", help="fit one regime and save the model")
    p.add_argument("--regime", required=True, choices=storage.REGIMES)
    p.add_argument("--data", required=True, help="dataset manifest (spectral) or text table (discrete)")
    p.add_argument("--rank", type=int, required=True, help="prescribed number of generators")
    p.add_argument("--dual-lattice", help="extra regime: lattice basis, row-major, rows ';'-separated")
    p.add_argument("--box", type=int, help="pw regime: translation box radius")
    p.add_argument("--partition", help="discrete regime: partition file")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--out", help=f"model directory (default ${OUT_ENV} or .)")

    p = sub.add_parser("verify", help="re-check a saved model against data")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--data", required=True)

    p = sub.add_parser("compare", help="sweep regimes and ranks, flag defects")
    p.add_argument("--data", required=True)
    p.add_argument("--regimes", required=True, help="comma-separated: sis,extra,pw (or discrete alone)")
    p.add_argument("--ranks", required=True, help="comma-separated rank list")
    p.add_argument("--dual-lattice", help="lattice basis for the extra regime")
    p.add_argument("--boxes", help="pw regime: comma-separated box radii")
    p.add_argument("--partition", help="discrete regime: partition file")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--out", help="also write the table as CSV to this file")
    return parser


_parser = None  # built by the first ``main`` call, then kept


def main(argv=None) -> int:
    """Run one command; exit code as in the module docstring.  The parser
    is built once per process, and the command runs as the module's
    ``cmd_<command>`` of the moment, so that a rebound one is honoured."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValidationError(f"--threads must be at least 1, got {args.threads}")
        return globals()[f"cmd_{args.command}"](args)
    except EnergyOverflow as exc:  # raised where the squares are formed, which know no file
        print(f"error: {args.data}: {exc}", file=sys.stderr)
        return 2
    except (SisfitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
