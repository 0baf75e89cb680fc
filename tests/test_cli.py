import argparse
import builtins
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import sisfit
from sisfit import cli, hermitian, spectral, verify
from sisfit.discrete import (DiscreteDataset, error_discrete, parse_discrete_dataset, parse_partition,
                             write_discrete_sequences)
from sisfit.extra import error_extra
from sisfit.hermitian import eig_hermitian_batch
from sisfit.lattice import make_dual_lattice
from sisfit.multitile import fit_multitile
from sisfit.sis import error_sis
from sisfit.spectral import SpectralDataset, SpectralGrid, ingest, write_dataset

from conftest import random_dataset
from test_extra import indicator_dataset

# the source tree under test, for the subprocesses
SRC = str(Path(sisfit.__file__).resolve().parents[1])


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sisfit", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in:\n{text}")


def test_synth_fit_verify_round_trip(tmp_path):
    data = tmp_path / "data"
    res = run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 8, "--trunc", 1, "--out", data,
    )
    assert res.returncode == 0, res.stderr
    assert (data / "dataset.json").is_file() and (data / "dataset.bin").is_file()

    model = tmp_path / "model"
    res = run_cli(
        "fit", "--regime", "sis", "--data", data / "dataset.json",
        "--rank", 1, "--out", model,
    )
    assert res.returncode == 0, res.stderr
    assert float(report_value(res.stdout, "error")) <= 1e-12
    assert (model / "model.json").is_file()
    assert (model / "report.txt").is_file()
    assert (model / "generators.bin").is_file()
    assert (model / "residuals.csv").is_file()
    assert (model / "eigencurves.csv").is_file()

    res = run_cli("verify", "--model", model, "--data", data / "dataset.json")
    assert res.returncode == 0, res.stderr
    assert "result: pass" in res.stdout


def test_extra_golden_via_cli(tmp_path):
    ds = indicator_dataset()
    manifest = write_dataset(ds, tmp_path / "data", stem="chi")
    model = tmp_path / "model"
    res = run_cli(
        "fit", "--regime", "extra", "--data", manifest,
        "--rank", 1, "--dual-lattice", "2", "--out", model,
    )
    assert res.returncode == 0, res.stderr
    assert abs(float(report_value(res.stdout, "error")) - 1.0) <= 1e-9
    assert report_value(res.stdout, "cosets") == "2"
    assert (model / "home_cosets.csv").is_file()

    res = run_cli("verify", "--model", model, "--data", manifest)
    assert res.returncode == 0, res.stderr

    res = run_cli(
        "fit", "--regime", "extra", "--data", manifest,
        "--rank", 2, "--dual-lattice", "2", "--out", tmp_path / "model2",
    )
    assert abs(float(report_value(res.stdout, "error"))) <= 1e-10


def test_pw_fit_and_verify(tmp_path):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 8, "--trunc", 1, "--out", data,
    )
    model = tmp_path / "model"
    res = run_cli(
        "fit", "--regime", "pw", "--data", data / "dataset.json",
        "--rank", 3, "--box", 1, "--out", model,
    )
    assert res.returncode == 0, res.stderr
    assert float(report_value(res.stdout, "error")) == 0.0
    rows = (model / "chosen.csv").read_text().strip().splitlines()
    assert all(row.split(",", 1)[1] == "-1,0,1" for row in rows)
    # the one-hot generators follow from chosen.csv; none are written
    assert not (model / "generators.bin").exists()

    res = run_cli("verify", "--model", model, "--data", data / "dataset.json")
    assert res.returncode == 0, res.stderr
    assert "result: pass" in res.stdout

    # an older pw directory that still holds generators.bin loads as before
    np.full(3 * 8 * 3, 7.0, dtype="<c16").tofile(model / "generators.bin")
    _set_json(model / "model.json", "payload_generators", "generators.bin")
    res = run_cli("verify", "--model", model, "--data", data / "dataset.json")
    assert res.returncode == 0, res.stderr
    assert "result: pass" in res.stdout


def test_discrete_fit_and_verify(tmp_path):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n")
    part = tmp_path / "part.txt"
    part.write_text("lattice: 2\n")
    model = tmp_path / "model"
    res = run_cli(
        "fit", "--regime", "discrete", "--data", seqs,
        "--rank", 1, "--partition", part, "--out", model,
    )
    assert res.returncode == 0, res.stderr
    assert float(report_value(res.stdout, "error")) == pytest.approx(1.0, abs=1e-12)
    assert report_value(res.stdout, "allocation") == "1 0"
    assert (model / "partition.txt").read_text() == part.read_text()

    res = run_cli("verify", "--model", model, "--data", seqs)
    assert res.returncode == 0, res.stderr
    assert "result: pass" in res.stdout


def test_verify_detects_corruption(tmp_path):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "bspline", "--order", 1, "--dim", 1,
        "--cells", 4, "--trunc", 1, "--out", data,
    )
    model = tmp_path / "model"
    run_cli(
        "fit", "--regime", "sis", "--data", data / "dataset.json",
        "--rank", 1, "--out", model,
    )
    payload = model / "generators.bin"
    raw = np.fromfile(payload, dtype="<c16")
    raw[1] += 0.5
    raw.tofile(payload)
    res = run_cli("verify", "--model", model, "--data", data / "dataset.json")
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_verify_wrong_grid_is_usage_error(tmp_path):
    data = tmp_path / "a"
    other = tmp_path / "b"
    for out, cells in ((data, 4), (other, 8)):
        run_cli(
            "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
            "--cells", cells, "--trunc", 1, "--out", out,
        )
    model = tmp_path / "model"
    run_cli(
        "fit", "--regime", "sis", "--data", data / "dataset.json",
        "--rank", 1, "--out", model,
    )
    res = run_cli("verify", "--model", model, "--data", other / "dataset.json")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_usage_errors(tmp_path):
    res = run_cli(
        "synth", "--family", "wavelet", "--dim", 1, "--cells", 4,
        "--trunc", 1, "--out", tmp_path,
    )
    assert res.returncode == 2
    assert "error:" in res.stderr

    res = run_cli(
        "synth", "--family", "gaussian", "--dim", 1, "--cells", 4,
        "--trunc", 1, "--out", tmp_path,
    )
    assert res.returncode == 2  # missing --sigma

    res = run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--order", 2,
        "--dim", 1, "--cells", 4, "--trunc", 1, "--out", tmp_path,
    )
    assert res.returncode == 2  # foreign family flag

    res = run_cli("verify", "--model", tmp_path / "nope", "--data", tmp_path / "nope.json")
    assert res.returncode == 2


def test_synth_on_a_grid_of_more_cells_than_int64_numbers_is_a_usage_error(tmp_path, capsys):
    argv = ["synth", "--family", "gaussian", "--sigma", "1", "--dim", "20000", "--cells", "4", "--trunc", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("error: grid fields 'dim' (20000) and 'cells_per_dim' (4) give more cells "
                                       "than an int64 cell index numbers\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag, message", [("--sigma", "gaussian sigma must be positive"),
                                           ("--order", "bspline order must be a nonnegative integer"),
                                           ("--halfwidth", "boxcar halfwidth must be positive")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_synth_with_a_non_finite_parameter_is_a_usage_error(tmp_path, capsys, flag, message, value):
    family = {"--sigma": "gaussian", "--order": "bspline", "--halfwidth": "boxcar"}[flag]
    argv = ["synth", "--family", family, flag, value, "--dim", "1", "--cells", "4", "--trunc", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not any(tmp_path.iterdir())


def test_fit_flag_consistency(tmp_path):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 4, "--trunc", 1, "--out", data,
    )
    manifest = data / "dataset.json"
    res = run_cli(
        "fit", "--regime", "sis", "--data", manifest, "--rank", 1,
        "--box", 1, "--out", tmp_path / "m1",
    )
    assert res.returncode == 2
    res = run_cli(
        "fit", "--regime", "extra", "--data", manifest, "--rank", 1,
        "--out", tmp_path / "m2",
    )
    assert res.returncode == 2  # missing --dual-lattice
    res = run_cli(
        "fit", "--regime", "pw", "--data", manifest, "--rank", 1,
        "--partition", "x.txt", "--out", tmp_path / "m3",
    )
    assert res.returncode == 2


def test_compare_sweep(tmp_path):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "boxcar", "--halfwidth", 1, "--dim", 1,
        "--cells", 8, "--trunc", 2, "--out", data,
    )
    table = tmp_path / "table.csv"
    res = run_cli(
        "compare", "--data", data / "dataset.json",
        "--regimes", "sis,extra,pw", "--ranks", "1,2",
        "--dual-lattice", "2", "--boxes", "1,2", "--out", table,
    )
    assert res.returncode == 0, res.stderr
    assert "defect" not in res.stdout
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "regime,rank,box,error,tail,total"
    # 2 sis + 2 extra + 2 ranks x 2 boxes pw
    assert len(lines) == 1 + 2 + 2 + 4

    res = run_cli(
        "compare", "--data", data / "dataset.json",
        "--regimes", "sis,discrete", "--ranks", "1",
    )
    assert res.returncode == 2


def test_compare_discrete(tmp_path):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n0,2,0.5,0.0\n")
    part = tmp_path / "part.txt"
    part.write_text("lattice: 2\n")
    res = run_cli(
        "compare", "--data", seqs, "--regimes", "discrete",
        "--ranks", "1,2,3", "--partition", part,
    )
    assert res.returncode == 0, res.stderr


def _sweep_inputs(tmp_path, rng, regime):
    """The ``compare`` flags of a random input of ``regime``, and the
    error function of that input at a rank, as ``sisfit`` reads it."""
    if regime == "discrete":
        seqs, part = tmp_path / "seqs.txt", tmp_path / "part.txt"
        values = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        write_discrete_sequences(np.arange(9)[:, None], values, seqs)
        part.write_text("lattice: 3\n")
        ds = parse_discrete_dataset(seqs)
        return ("--data", seqs, "--partition", part), lambda r: error_discrete(ds, parse_partition(part, 1), r)
    ds = random_dataset(rng, dim=1, cells=8, trunc=3, m=5)
    manifest = write_dataset(ds, tmp_path / "data")
    if regime == "sis":
        return ("--data", manifest), lambda r: error_sis(ds, r)
    return ("--data", manifest, "--dual-lattice", "2"), lambda r: error_extra(ds, make_dual_lattice([[2]]), r)


@pytest.mark.parametrize("regime", ["sis", "extra", "discrete"])
def test_compare_rows_are_the_error_functions_bit_for_bit(tmp_path, rng, regime):
    flags, error = _sweep_inputs(tmp_path, rng, regime)
    table = tmp_path / "table.csv"
    assert cli.main(["compare", *map(str, flags), "--regimes", regime, "--ranks", "3,1,3", "--out", str(table)]) == 0
    rows = table.read_text().splitlines()[1:]
    assert rows == [f"{regime},{r},,{error(r)!r},,{error(r)!r}" for r in (3, 1, 3)]


@pytest.mark.parametrize("regime", ["sis", "extra", "discrete"])
def test_compare_solves_each_gramian_once_whatever_the_ranks(tmp_path, rng, monkeypatch, regime):
    flags, _ = _sweep_inputs(tmp_path, rng, regime)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eig_hermitian_batch(*args, **kwargs)

    monkeypatch.setattr("sisfit.sis.eig_hermitian_batch", counted)
    made = []
    for ranks in ("1", "1,2,3"):
        calls.clear()
        assert cli.main(["compare", *map(str, flags), "--regimes", regime, "--ranks", ranks]) == 0
        made.append(len(calls))
    assert made[0] > 0 and made[1] == made[0]


def test_compare_checks_boxes_in_increasing_order(tmp_path, rng, capsys):
    manifest = write_dataset(random_dataset(rng, dim=1, cells=8, trunc=3, m=3), tmp_path / "data")
    for boxes in ("1,2", "2,1"):
        assert cli.main(["compare", "--data", str(manifest), "--regimes", "pw", "--ranks", "2", "--boxes", boxes]) == 0
        assert "defect:" not in capsys.readouterr().out


def test_compare_monotonicity_defect_messages(tmp_path, rng, monkeypatch, capsys):
    manifest = write_dataset(random_dataset(rng), tmp_path / "data")
    monkeypatch.setattr(cli, "sweep_multitile",
                        lambda ds, ranks, boxes: [[(float(r + b), 0.5) for b in boxes] for r in ranks])
    assert cli.main(["compare", "--data", str(manifest), "--regimes", "pw", "--ranks", "1,2", "--boxes", "1,2"]) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("defect:")] == [
        "defect: pw rank 1: total grows from box 1 to 2 (2.5 -> 3.5)",
        "defect: pw rank 2: total grows from box 1 to 2 (3.5 -> 4.5)",
        "defect: pw: error grows from rank 1 to 2 (3.5 -> 4.5)",
    ]


def test_compare_reports_an_extra_error_below_the_unconstrained_one(tmp_path, rng, monkeypatch, capsys):
    manifest, table = write_dataset(random_dataset(rng), tmp_path / "data"), tmp_path / "table.csv"
    monkeypatch.setattr(cli, "spectra_extra", lambda ds, lat: np.zeros((ds.grid.n_cells, 1, ds.m)))
    assert cli.main(["compare", "--data", str(manifest), "--regimes", "sis,extra", "--ranks", "1",
                     "--dual-lattice", "2", "--out", str(table)]) == 1
    es = error_sis(ingest(manifest), 1)
    defect = f"rank 1: extra-invariant error 0.0 below unconstrained error {es!r}"
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("defect:")] == [
        f"defect: {defect}"]
    assert table.read_text().splitlines()[-1] == f"# defect: {defect}"


def test_compare_pw_rows_are_the_fits_bit_for_bit(tmp_path, rng, capsys):
    ds = random_dataset(rng, dim=1, cells=8, trunc=3, m=5)
    manifest, table = write_dataset(ds, tmp_path / "data"), tmp_path / "table.csv"
    assert cli.main(["compare", "--data", str(manifest), "--regimes", "pw", "--ranks", "3,1,3", "--boxes", "3,1,2,2",
                     "--out", str(table)]) == 0
    fits = [(r, b, fit_multitile(ds, r, b)) for r in (3, 1, 3) for b in (3, 1, 2, 2)]
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{'pw':<9} {r:>4} {b:>4} {m.error!r:>24} {m.tail!r:>24} {m.error + m.tail!r:>24}" for r, b, m in fits]
    assert table.read_text().splitlines()[1:] == [
        f"pw,{r},{b},{m.error!r},{m.tail!r},{m.error + m.tail!r}" for r, b, m in fits]


def test_compare_sorts_each_pw_box_once_whatever_the_ranks(tmp_path, rng, monkeypatch):
    manifest = write_dataset(random_dataset(rng, dim=1, cells=8, trunc=3, m=5), tmp_path / "data")
    dims, argsort = [], np.argsort

    def counted(a, *args, **kwargs):
        dims.append(np.ndim(a))  # the per-cell sort of a box is the one 2-d argsort
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    made = []
    for ranks in ("1", "1,2,3"):
        dims.clear()
        assert cli.main(["compare", "--data", str(manifest), "--regimes", "pw", "--ranks", ranks,
                         "--boxes", "2,1,2"]) == 0
        made.append(dims.count(2))
    assert made == [2, 2]


# the report keys of ``fit`` before ``model_dir`` and ``timing_seconds``
FIT_REPORT_KEYS = {
    "sis": ["regime", "rank", "grid", "functions", "energy", "error"],
    "extra": ["regime", "rank", "grid", "functions", "energy", "dual_lattice", "cosets", "error"],
    "pw": ["regime", "rank", "grid", "functions", "energy", "box_radius", "error", "tail", "total_unreachable"],
    "discrete": ["regime", "rank", "dim", "sequences", "support_points", "blocks", "allocation", "energy", "error"],
}


def _regime_input(tmp_path, rng, regime):
    """The ``--data`` file of a small input of ``regime`` and the flag
    that regime needs (empty for ``sis``)."""
    if regime == "discrete":
        seqs, part = tmp_path / "seqs.txt", tmp_path / "part.txt"
        seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n0,2,0.5,0.0\n")
        part.write_text("lattice: 2\n")
        return str(seqs), ["--partition", str(part)]
    manifest = write_dataset(random_dataset(rng, cells=4, trunc=1, m=3), tmp_path / "data")
    return str(manifest), {"sis": [], "extra": ["--dual-lattice", "2"], "pw": ["--box", "1"]}[regime]


@pytest.mark.parametrize("regime", ["sis", "extra", "pw", "discrete"])
def test_fit_report_keys_and_missing_regime_flags(tmp_path, rng, capsys, regime):
    data, flag = _regime_input(tmp_path, rng, regime)
    model = tmp_path / "model"
    fit = ["fit", "--regime", regime, "--data", data, "--rank", "2", "--out", str(model)]
    assert cli.main(fit + flag) == 0
    out = capsys.readouterr().out
    assert [line.split(":", 1)[0] for line in out.splitlines()] == FIT_REPORT_KEYS[regime] + [
        "model_dir", "timing_seconds"]
    assert (model / "report.txt").read_text() == out
    if not flag:
        return
    commands = [fit]
    if regime != "pw":  # compare's --boxes defaults to the truncation radius
        commands.append(["compare", "--data", data, "--regimes", regime, "--ranks", "1"])
    missing = str(tmp_path / "missing.txt")
    for argv in commands:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: regime {regime!r} needs {flag[0]}\n"
        # the data are read before a missing flag is reported
        assert cli.main([missing if a == data else a for a in argv]) == 2
        assert capsys.readouterr().err == f"error: file not found: {missing}\n"


def test_lattice_of_too_many_cosets_is_a_usage_error(tmp_path, rng, capsys):
    data, _ = _regime_input(tmp_path, rng, "sis")
    for argv in (["fit", "--regime", "extra", "--rank", "1", "--dual-lattice", "10000000000", "--out", str(tmp_path)],
                 ["compare", "--regimes", "sis,extra", "--ranks", "1", "--dual-lattice", "10000000000"]):
        assert cli.main(argv + ["--data", data]) == 2
        assert capsys.readouterr().err == "error: lattice basis has 10000000000 cosets, more than 1048576\n"


@pytest.mark.parametrize("regimes", ["", ",", " , "])
def test_compare_with_an_empty_regime_list_is_a_usage_error(tmp_path, rng, capsys, regimes):
    # refused before any data is read: a missing --data file is not reported
    data, _ = _regime_input(tmp_path, rng, "sis")
    table = tmp_path / "table.csv"
    for path in (data, str(tmp_path / "missing.json")):
        assert cli.main(["compare", "--data", path, "--regimes", regimes, "--ranks", "1", "--out", str(table)]) == 2
        assert capsys.readouterr() == ("", "error: empty regime list\n")
        assert not table.exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--ranks", "1,x", "expected a comma-separated integer list, got '1,x'"),
    ("--ranks", ",", "empty integer list"),
    ("--regimes", "sis,foo", "unknown regime 'foo' (known: discrete, extra, pw, sis)"),
])
def test_compare_with_a_malformed_list_is_a_usage_error(tmp_path, rng, capsys, flag, value, message):
    data, _ = _regime_input(tmp_path, rng, "sis")
    argv = dict({"--data": data, "--regimes": "sis", "--ranks": "1"}, **{flag: value})
    assert cli.main(["compare", *(a for pair in argv.items() for a in pair)]) == 2
    named = "" if flag == "--regimes" else f"{flag}: "  # an integer list's error names its flag
    assert capsys.readouterr() == ("", f"error: {named}{message}\n")


@pytest.mark.parametrize("flag", ["--ranks", "--boxes"])
@pytest.mark.parametrize("value,message", [("1,x", "expected a comma-separated integer list, got '1,x'"),
                                           (",", "empty integer list")])
def test_compare_refuses_a_malformed_list_by_its_flag_before_reading_data(tmp_path, capsys, flag, value, message):
    argv = dict({"--data": str(tmp_path / "absent.json"), "--regimes": "pw", "--ranks": "1", "--boxes": "1"},
                **{flag: value})
    assert cli.main(["compare", *(a for pair in argv.items() for a in pair)]) == 2
    assert capsys.readouterr() == ("", f"error: {flag}: {message}\n")


def test_rank_beyond_memory_is_a_usage_error(tmp_path, rng, capsys):
    data, _ = _regime_input(tmp_path, rng, "sis")
    # 10^12 generators of 4 cells and 3 translations: far more memory than any host has,
    # refused before any is allocated
    assert cli.main(["fit", "--regime", "sis", "--data", data, "--rank", str(10**12), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: rank 1000000000000 on 4 cells of 3 columns makes 12000000000000 "
                                       "generator values, more than both 16777216 and the 36 samples\n")


@pytest.mark.parametrize("regime,field,name", [
    ("sis", "payload_generators", "generators.bin"),
    ("extra", "payload_generators", "generators.bin"),
    ("pw", "payload_chosen", "chosen.csv"),
    ("discrete", "payload_generators", "generators.txt"),
])
def test_model_files_are_read_by_their_fixed_names(tmp_path, regime, field, name):
    model, data = _fitted_discrete_model(tmp_path) if regime == "discrete" else _fitted_model(tmp_path, regime)
    moved = tmp_path / "elsewhere" / name
    moved.parent.mkdir()
    (model / name).rename(moved)
    _set_json(model / "model.json", field, str(moved))
    res = run_cli("verify", "--model", model, "--data", data)
    assert res.returncode == 2, res.stdout
    assert res.stderr == f"error: {model / 'model.json'}: field {field!r} must be {name!r}, got {str(moved)!r}\n"


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings if o.startswith("--")}
    missing = [o for o in sorted(options - {"--help"}) if not re.search(re.escape(o) + r"(?![\w-])", readme)]
    assert missing == []


def _no_model(tmp_path):
    return ["verify", "--model", str(tmp_path / "nope"), "--data", str(tmp_path / "nope.json")]


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    for _ in range(3):
        assert cli.main(_no_model(tmp_path)) == 2
    assert built == [1]
    assert capsys.readouterr().err.count("error: file not found") == 3


def test_a_command_rebound_after_the_first_call_runs(tmp_path, monkeypatch, capsys):
    assert cli.main(_no_model(tmp_path)) == 2  # the parser is built and kept
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.model) or 7)
    assert cli.main(_no_model(tmp_path)) == 7
    assert seen == [str(tmp_path / "nope")]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fit", "--regime", "sis"],
        ["fit", "--regime", "wavelet", "--data", "d.json", "--rank", "1"],
        ["fit", "--regime", "sis", "--data", "d.json", "--rank", "two"],
        ["verify", "--model", "m", "--data", "d.json", "--eig-tol", "1"],
        ["sweep"],
    ],
)
def test_usage_error_after_the_parser_is_kept_is_the_fresh_process_one(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the usage lines wrap at the terminal width
    cli.main(_no_model(tmp_path))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    fresh = run_cli(*argv, env_extra={"COLUMNS": "80"})
    assert exc.value.code == fresh.returncode == 2
    assert capsys.readouterr().err == fresh.stderr


def test_commands_in_one_process_print_what_fresh_processes_print(tmp_path, rng, capsys):
    data = write_dataset(random_dataset(rng, cells=4, trunc=2, m=3), tmp_path / "data")
    model = tmp_path / "model"
    commands = [
        ("fit", "--regime", "sis", "--data", data, "--rank", 2, "--out", model),
        ("verify", "--model", model, "--data", data),
        ("compare", "--data", data, "--regimes", "sis,extra", "--ranks", "1,2", "--dual-lattice", "2"),
    ]

    def untimed(text):
        return [line for line in text.splitlines() if not line.startswith("timing_seconds:")]

    in_process = []
    for argv in commands:
        rc = cli.main([str(a) for a in argv])
        in_process.append((rc, untimed(capsys.readouterr().out)))
    fresh = [(res.returncode, untimed(res.stdout)) for res in (run_cli(*argv) for argv in commands)]
    assert in_process == fresh
    assert [rc for rc, _ in fresh] == [0, 0, 0] and len(fresh[0][1]) > 5


def test_refit_next_to_its_own_partition_keeps_it(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n")
    model = tmp_path / "model"
    model.mkdir()
    part = model / "partition.txt"
    part.write_text("lattice: 2\n")
    for _ in range(2):
        assert cli.main(["fit", "--regime", "discrete", "--data", str(seqs), "--rank", "1",
                         "--partition", str(part), "--out", str(model)]) == 0
        assert part.read_text() == "lattice: 2\n"


def test_out_env_default(tmp_path):
    outdir = tmp_path / "env_out"
    res = run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 4, "--trunc", 1,
        env_extra={"SISFIT_OUT": str(outdir)},
    )
    assert res.returncode == 0, res.stderr
    assert (outdir / "dataset.json").is_file()


def _fitted_sis_model(tmp_path):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 4, "--trunc", 1, "--out", data,
    )
    model = tmp_path / "model"
    res = run_cli(
        "fit", "--regime", "sis", "--data", data / "dataset.json",
        "--rank", 1, "--out", model,
    )
    assert res.returncode == 0, res.stderr
    return model, data / "dataset.json"


def test_model_json_without_rank_is_usage_error(tmp_path):
    import json

    model, manifest = _fitted_sis_model(tmp_path)
    meta = json.loads((model / "model.json").read_text())
    del meta["rank"]
    (model / "model.json").write_text(json.dumps(meta))
    res = run_cli("verify", "--model", model, "--data", manifest)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "model.json" in res.stderr and "'rank'" in res.stderr


@pytest.mark.parametrize("row", ["0,abc", "0", "0,1.0,2.0", "9,1.0", "-1,1.0"])
def test_garbled_residuals_row_is_usage_error(tmp_path, row):
    model, manifest = _fitted_sis_model(tmp_path)
    (model / "residuals.csv").write_text(f"{row}\n1,0.0\n2,0.0\n3,0.0\n")
    res = run_cli("verify", "--model", model, "--data", manifest)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "residuals.csv:1:" in res.stderr


def test_residuals_need_one_row_per_cell(tmp_path):
    model, manifest = _fitted_sis_model(tmp_path)
    (model / "residuals.csv").write_text("0,0.0\n0,0.0\n2,0.0\n3,0.0\n")
    res = run_cli("verify", "--model", model, "--data", manifest)
    assert res.returncode == 2
    assert "residuals.csv: expected one row for each cell" in res.stderr


def test_threads_flag_has_no_effect_but_is_checked(tmp_path):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n")
    part = tmp_path / "part.txt"
    part.write_text("lattice: 2\n")
    fit = ("fit", "--regime", "discrete", "--data", seqs, "--rank", 1, "--partition", part)
    res = run_cli(*fit, "--threads", 0, "--out", tmp_path / "m0")
    assert res.returncode == 2 and "threads" in res.stderr
    res = run_cli(
        "compare", "--data", seqs, "--regimes", "discrete", "--ranks", "1",
        "--partition", part, "--threads", 0,
    )
    assert res.returncode == 2 and "threads" in res.stderr
    for threads in (1, 3):
        res = run_cli(*fit, "--threads", threads, "--out", tmp_path / f"m{threads}")
        assert res.returncode == 0, res.stderr
    for name in ("model.json", "generators.txt", "selected.csv"):
        assert (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m3" / name).read_bytes()


@pytest.mark.parametrize("flag", ["--threads", "--eig-tol"])
def test_verify_takes_no_solver_flags(tmp_path, flag):
    model, manifest = _fitted_sis_model(tmp_path)
    res = run_cli("verify", "--model", model, "--data", manifest, flag, "1")
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr
    if flag == "--eig-tol":  # fit and compare take no solver tolerance either
        for cmd in (("fit", "--regime", "sis", "--data", manifest, "--rank", 1, "--out", tmp_path / "m"),
                    ("compare", "--data", manifest, "--regimes", "sis", "--ranks", 1)):
            res = run_cli(*cmd, flag, "1e-12")
            assert res.returncode == 2 and "unrecognized arguments" in res.stderr


def run_in_process(*args, env_extra=None, cwd=None):
    """``run_cli`` through ``cli.main`` in this process: stdout and stderr
    captured, ``SystemExit`` as the exit code, any other exception as its
    traceback with exit code 1; ``env_extra`` and ``cwd`` hold for the call
    only.  A test of the process environment (``OPENBLAS_*``, ``OMP_*``,
    ``PYTHONHASHSEED``) needs ``run_cli``: this process has read it already."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for key, value in (env_extra or {}).items():
            patch.setenv(key, value)
        if cwd is not None:
            patch.chdir(cwd)
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def _fitted_model(tmp_path, regime, rank=1, run=run_cli):
    data = tmp_path / "data"
    run(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 4, "--trunc", 1, "--out", data,
    )
    flags = {"sis": (), "extra": ("--dual-lattice", "2"), "pw": ("--box", "1")}[regime]
    model = tmp_path / "model"
    res = run(
        "fit", "--regime", regime, "--data", data / "dataset.json",
        "--rank", rank, *flags, "--out", model,
    )
    assert res.returncode == 0, res.stderr
    return model, data / "dataset.json"


def _tamper_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "regime,name,col,value,check",
    [
        ("sis", "residuals.csv", 1, "999.0", "cell-residuals"),
        ("extra", "residuals.csv", 1, "999.0", "cell-residuals"),
        ("pw", "residuals.csv", 1, "999.0", "cell-residuals"),
        # column 2 is the first eigenvalue, after cell index and center
        ("sis", "eigencurves.csv", 2, "5.0", "eigencurves"),
        ("extra", "eigencurves.csv", 2, "5.0", "eigencurves"),
    ],
)
def test_verify_detects_tampered_cell_files(tmp_path, regime, name, col, value, check):
    model, manifest = _fitted_model(tmp_path, regime)
    res = run_cli("verify", "--model", model, "--data", manifest)
    assert res.returncode == 0 and f"{check}: ok" in res.stdout, res.stdout
    _tamper_csv(model / name, 2, col, value)
    res = run_cli("verify", "--model", model, "--data", manifest)
    assert res.returncode == 1, res.stdout
    assert f"result: FAIL ({check})" in res.stdout
    assert f"violation: [{check}] cell 2:" in res.stdout


@pytest.mark.parametrize(
    "regimes,flag,value",
    [
        ("sis", "--dual-lattice", "2"),
        ("sis,pw", "--dual-lattice", "2"),
        ("sis,extra", "--boxes", "1"),
        ("sis,extra,pw", "--partition", "part.txt"),
    ],
)
def test_compare_rejects_flags_of_unrequested_regimes(tmp_path, regimes, flag, value):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1,
        "--cells", 4, "--trunc", 1, "--out", data,
    )
    lattice = () if "extra" not in regimes else ("--dual-lattice", "2")
    res = run_cli(
        "compare", "--data", data / "dataset.json", "--regimes", regimes,
        "--ranks", "1", *lattice, flag, value,
    )
    assert res.returncode == 2, res.stdout
    assert f"error: {flag} only applies to regime" in res.stderr


@pytest.mark.parametrize("regime", ["sis", "extra"])
def test_verify_passes_rank_deficient_random_models(tmp_path, regime):
    from sisfit import storage
    from sisfit.extra import fit_extra_invariant
    from sisfit.lattice import make_dual_lattice
    from sisfit.sis import fit_sis

    from conftest import random_dataset

    ds = random_dataset(np.random.default_rng(5), m=3, cells=6, trunc=2)
    ds.samples[2] = ds.samples[0] - 2.0 * ds.samples[1]  # Gramians of rank 2
    manifest = write_dataset(ds, tmp_path / "data")
    for rank in (1, 2, 4):
        if regime == "sis":
            model = fit_sis(ds, rank)
        else:
            model = fit_extra_invariant(ds, make_dual_lattice([[2]]), rank)
        out = tmp_path / f"model{rank}"
        storage.save_model(model, out)
        res = run_cli("verify", "--model", out, "--data", manifest)
        assert res.returncode == 0, res.stdout
        assert "cell-residuals: ok" in res.stdout and "eigencurves: ok" in res.stdout


def _scale_first_nonzero(path):
    raw = np.fromfile(path, dtype="<c16")
    raw[np.flatnonzero(raw != 0)[0]] *= 1.5
    raw.tofile(path)


def _set_json(path, key, value):
    import json

    meta = json.loads(path.read_text())
    meta[key] = value
    path.write_text(json.dumps(meta))


def _drop_json(path, key):
    import json

    meta = json.loads(path.read_text())
    del meta[key]
    path.write_text(json.dumps(meta))


def _set_grid(path, key, value):
    import json

    meta = json.loads(path.read_text())
    meta["grid"][key] = value
    path.write_text(json.dumps(meta))


def _empty_binary_payload_of_huge_grid(path):
    import json

    (path.parent / "empty.bin").write_bytes(b"")
    path.write_text(json.dumps({"dim": 1, "m": 1, "cells_per_dim": 2, "trunc_radius": 10**12,
                                "payload_path": "empty.bin", "payload_format": "binary-c64le"}))


def _nan_sample(path, i):
    values = np.fromfile(path, dtype="<c16")
    values[i] = np.nan
    values.tofile(path)


def _binary_payload_with_nan(path):
    # the 12 samples of the manifest's grid, as a binary payload whose sample 5 is NaN
    np.ones(12, dtype="<c16").tofile(path)
    _nan_sample(path, 5)
    _set_json(path.parent / "dataset.json", "payload_path", path.name)
    _set_json(path.parent / "dataset.json", "payload_format", "binary-c64le")


def _shift_home_coset(path):
    lines = path.read_text().splitlines()
    g, s, home, rank = lines[1].split(",")
    lines[1] = f"{g},{s},{1 - int(home)},{rank}"
    path.write_text("\n".join(lines) + "\n")


def _set_block_ranks(path, rank=5):
    lines = [ln.rsplit(",", 1)[0] + f",{rank}" for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")


def _shift_eigenvalues(path, delta=0.125):
    # cell 0's two kept eigenvalues moved by -delta and +delta: their sum,
    # all that the eigenvalue-sum test sees, holds
    lines = path.read_text().splitlines()
    g, center, a, b = lines[0].split(",")
    lines[0] = f"{g},{center},{float(a) - delta!r},{float(b) + delta!r}"
    path.write_text("\n".join(lines) + "\n")


def _swap_eigenvalues(path):
    # cell 0's two kept eigenvalues in ascending order, with the same sum
    lines = path.read_text().splitlines()
    g, center, a, b = lines[0].split(",")
    lines[0] = f"{g},{center},{b},{a}"
    path.write_text("\n".join(lines) + "\n")


def _foreign_selection(path):
    # slot 0's even-block generator recorded in block 'zz', a label that
    # model.json holds, at in-block rank 9 with eigenvalue 123.0: it loads,
    # and verify flags the block and the eigenvalue
    path.write_text("0,zz,9,123.0\n")
    _set_json(path.parent / "model.json", "allocation", [9, 9])
    _set_json(path.parent / "model.json", "labels", ["q", "zz"])


def _unknown_label(path):
    # the same row, with a label that model.json's labels do not hold
    _foreign_selection(path)
    _set_json(path.parent / "model.json", "labels", ["q"])


def _duplicate_pick(path):
    lines = path.read_text().splitlines()
    g, first, _ = lines[1].split(",")
    lines[1] = f"{g},{first},{first}"
    path.write_text("\n".join(lines) + "\n")


def _pick_outside_grid(path):
    # cell 0's first pick, far outside the radius-1 truncation box
    lines = path.read_text().splitlines()
    g, _, rest = lines[0].split(",", 2)
    lines[0] = f"{g},1000,{rest}"
    path.write_text("\n".join(lines) + "\n")


def _scale_generator_value(path):
    lines = path.read_text().splitlines()
    j, pos, re, im = lines[0].split(",")
    lines[0] = f"{j},{pos},{float(re) * 1.5!r},{im}"
    path.write_text("\n".join(lines) + "\n")


def _set_eigenvalue(path, value=99.0):
    # slot 0 keeps the even block's eigenvalue 1.25
    lines = path.read_text().splitlines()
    slot, label, j, _ = lines[0].split(",")
    lines[0] = f"{slot},{label},{j},{value!r}"
    path.write_text("\n".join(lines) + "\n")


def _swap_selected_labels(path):
    # slots 0 and 1 keep the even and the odd block: swapped, each generator
    # sits off its home block, while the counts and numbering still hold
    (s0, a, j0, lam0), (s1, b, j1, lam1) = (line.split(",") for line in path.read_text().splitlines())
    path.write_text(f"{s0},{b},{j0},{lam0}\n{s1},{a},{j1},{lam1}\n")


def _value_in_other_block(path):
    # generator 0 lives on the even positions; a tiny value at an odd one
    # leaves its Gramian and the projection within tolerance
    with open(path, "a") as fh:
        fh.write("0,1,1e-12,0.0\n")


def _fitted_discrete_model(tmp_path, rank=1, run=run_cli):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n0,2,0.5,0.0\n")
    part = tmp_path / "part.txt"
    part.write_text("lattice: 2\n")
    model = tmp_path / "model"
    res = run(
        "fit", "--regime", "discrete", "--data", seqs,
        "--rank", rank, "--partition", part, "--out", model,
    )
    assert res.returncode == 0, res.stderr
    return model, seqs


_TAMPERED = (
    "regime,name,tamper,failed,violation",
    [
        ("sis", "generators.bin", _scale_first_nonzero,
         "parseval, residual-identity, cell-residuals, eigencurves", "parseval"),
        ("sis", "model.json", lambda p: _set_json(p, "error", 5.0), "residual-identity", "residual-identity"),
        ("sis", "eigencurves.csv", _shift_eigenvalues, "eigencurves", "eigencurves"),
        ("sis", "eigencurves.csv", _swap_eigenvalues, "eigencurves", "eigencurves"),
        ("extra", "generators.bin", _scale_first_nonzero,
         "parseval, residual-identity, cell-residuals, eigencurves", "parseval"),
        ("extra", "model.json", lambda p: _set_json(p, "error", 5.0), "residual-identity", "residual-identity"),
        ("extra", "home_cosets.csv", _shift_home_coset, "coset-support", "coset-support"),
        ("extra", "home_cosets.csv", _set_block_ranks, "coset-support", "coset-support"),
        ("extra", "eigencurves.csv", _shift_eigenvalues, "eigencurves", "eigencurves"),
        ("pw", "chosen.csv", _duplicate_pick, "tile-distinct, residual-identity, cell-residuals", "tile-distinct"),
        ("pw", "chosen.csv", _pick_outside_grid, "tile-box, residual-identity, cell-residuals", "tile-box"),
        ("pw", "model.json", lambda p: _set_json(p, "error", 5.0), "residual-identity", "residual-identity"),
        ("pw", "model.json", lambda p: _set_json(p, "tail", 5.0), "tail", "tail"),
        ("discrete", "generators.txt", _scale_generator_value,
         "orthonormal, residual-identity, eigenvalues", "orthonormal"),
        ("discrete", "generators.txt", _value_in_other_block, "block-support", "block-support"),
        ("discrete", "selected.csv", _foreign_selection, "block-support, eigenvalues", "block-support"),
        ("discrete", "selected.csv", _set_eigenvalue, "eigenvalues", "eigenvalues"),
        ("discrete", "selected.csv", _swap_selected_labels, "block-support", "block-support"),
        ("discrete", "model.json", lambda p: _set_json(p, "error", 5.0), "residual-identity", "residual-identity"),
    ],
)


@pytest.mark.parametrize(*_TAMPERED)
def test_verify_names_each_failed_check(tmp_path, regime, name, tamper, failed, violation):
    if regime == "discrete":
        model, data = _fitted_discrete_model(tmp_path, rank=2)
    else:
        model, data = _fitted_model(tmp_path, regime, rank=2)
    res = run_cli("verify", "--model", model, "--data", data)
    assert res.returncode == 0 and "result: pass" in res.stdout, res.stdout
    tamper(model / name)
    res = run_cli("verify", "--model", model, "--data", data)
    assert res.returncode == 1, res.stdout + res.stderr
    assert f"result: FAIL ({failed})\n" in res.stdout
    assert f"violation: [{violation}" in res.stdout


def _fitted_in_process(tmp_path, regime):
    if regime == "discrete":
        return _fitted_discrete_model(tmp_path, rank=2, run=run_in_process)
    return _fitted_model(tmp_path, regime, rank=2, run=run_in_process)


def _project_out_of_place(x, e):
    coef = x @ e.conj().swapaxes(-1, -2)
    proj = coef @ e
    r = x - proj
    return coef, proj, (r.real**2 + r.imag**2).sum(axis=-1)


@pytest.mark.parametrize(*_TAMPERED)
def test_verify_output_is_that_of_the_out_of_place_residuals(tmp_path, monkeypatch, capsys, regime, name, tamper,
                                                             failed, violation):
    # the residuals squared in place print every value of a failed check
    # as the out-of-place r.real**2 + r.imag**2 does, byte for byte
    model, data = _fitted_in_process(tmp_path, regime)
    tamper(model / name)
    argv = ["verify", "--model", str(model), "--data", str(data)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert f"result: FAIL ({failed})\n" in out
    monkeypatch.setattr(verify, "_project", _project_out_of_place)
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("regime", ["sis", "extra", "pw", "discrete"])
def test_verify_reads_model_json_once(tmp_path, monkeypatch, capsys, regime):
    # cmd_verify parses model.json for the regime and hands it to the
    # loader, which reads it no more
    model, data = _fitted_in_process(tmp_path, regime)
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(Path(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    capsys.readouterr()
    assert cli.main(["verify", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out.endswith("result: pass\n")
    assert [p for p in opened if p.name == "model.json"] == [model / "model.json"]
    assert model / "residuals.csv" in opened or regime == "discrete"


@pytest.mark.parametrize("regime", ["sis", "extra", "pw", "discrete"])
def test_one_verify_squares_the_samples_once(tmp_path, monkeypatch, capsys, regime):
    # the overflow refusal of verify takes the energy of the squares its
    # check forms, where fit and compare square the samples in cli._load
    model, data = _fitted_in_process(tmp_path, regime)
    passes = []

    def counted(square):
        def counting(ds):
            passes.append(square.__name__)
            return square(ds)
        return counting

    monkeypatch.setattr(spectral, "_squares", counted(spectral._squares))
    monkeypatch.setattr(verify, "_squares", spectral._squares)
    monkeypatch.setattr(DiscreteDataset, "energies", counted(DiscreteDataset.energies))
    capsys.readouterr()
    assert cli.main(["verify", "--model", str(model), "--data", str(data)]) == 0
    assert capsys.readouterr().out.endswith("result: pass\n")
    assert passes == ["energies" if regime == "discrete" else "_squares"]


def _drop_row(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")


def _duplicate_row(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + lines[:1] + lines[2:]) + "\n")


def _append_next_slot(path):
    # a well-formed record in the slot after the last, beyond the model's rank
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [f"{len(lines)},1,0,0.5"]) + "\n")


@pytest.mark.parametrize(
    "regime,name,edit",
    [
        (regime, name, edit)
        for regime, name in (("sis", "eigencurves.csv"), ("extra", "home_cosets.csv"), ("pw", "chosen.csv"))
        for edit in (Path.unlink, _drop_row, _duplicate_row)
    ]
    + [("discrete", "selected.csv", edit) for edit in (Path.unlink, _duplicate_row, _append_next_slot)]
    + [("discrete", "generators.txt", Path.unlink)],
)
def test_incomplete_model_table_is_usage_error(tmp_path, regime, name, edit):
    if regime == "discrete":
        model, data = _fitted_discrete_model(tmp_path)
    else:
        model, data = _fitted_model(tmp_path, regime, rank=2)
    edit(model / name)
    res = run_cli("verify", "--model", model, "--data", data)
    assert res.returncode == 2, res.stdout
    assert "Traceback" not in res.stderr
    assert str(model / name) in res.stderr


@pytest.mark.parametrize(
    "name,edit,location",
    [
        ("dataset.json", lambda p: _set_json(p, "dim", "1"), "dataset.json: malformed field 'dim'"),
        ("dataset.json", lambda p: _set_json(p, "m", True), "dataset.json: malformed field 'm'"),
        ("dataset.json", lambda p: _set_json(p, "m", 2.5), "dataset.json: malformed field 'm'"),
        ("dataset.json", lambda p: _set_json(p, "payload_path", None),
         "dataset.json: malformed field 'payload_path'"),
        # column 2 of a row is its translation; -5 lies outside the radius-1 box
        ("dataset.csv", lambda p: _tamper_csv(p, 1, 2, "-5"), "dataset.csv:2: translation (-5,)"),
        ("model.json", lambda p: _set_json(p, "rank", 2.5), "model.json: malformed field 'rank'"),
        ("part.txt", "0, a, b\n1, b\n", "part.txt:1: inconsistent column count: expected 2 columns, got 3"),
        ("part.txt", "0, a\nx, b\n", "part.txt:2: invalid literal for int() with base 10: 'x'"),
        ("part.txt", "0, a\n1, b\n0, c\n", "part.txt:3: position (0,) labeled twice"),
        ("seqs.txt", "0,0,1.0,0.0\n1,1,1.0,0.0\n0,0,2.0,0.0\n", "seqs.txt:3: duplicate sample"),
        ("seqs.txt", "0,100000000000000000000,1.0,0.0\n", "seqs.txt:1: position (100000000000000000000,)"),
        # 10^8 sequences on one point are more samples than a sequence table may ask for
        ("seqs.txt", "100000000,0,1.0,0.0\n",
         "seqs.txt:1: sequence index 100000000 gives 100000001 sequences on 1 support points, more than 16777216"),
        # the translation of cell 0's only generator, beyond int64
        ("chosen.csv", lambda p: _tamper_csv(p, 0, 1, "100000000000000000000"),
         "chosen.csv:1: position (100000000000000000000,) outside the int64 range"),
        # the 12-sample payload against a manifest that promises 10^12 functions
        ("dataset.json", lambda p: _set_json(p, "m", 10**12), "dataset.csv has 12 samples, expected 12000000000000"),
        # column 3 of a row is its real part
        ("dataset.csv", lambda p: _tamper_csv(p, 1, 3, "nan"), "dataset.csv:2: non-finite value"),
        # the rank-1 model has one generator, index 0
        ("generators.txt", "1,0,1.0,0.0\n", "generators.txt:1: sequence index 1 exceeds 0"),
        # a byte that is not UTF-8 is a located data error, not a decoding traceback
        ("seqs.txt", lambda p: p.write_bytes(b"0,0,1.0,0.0\n1,1,\xff,0.0\n"), "seqs.txt:2: byte 0xff is not UTF-8"),
        # an integer beyond int64 before a malformed one: the malformed token is named
        ("seqs.txt", "0,100000000000000000000,x,1.0,0.0\n", "seqs.txt:1: invalid literal for int()"),
        ("dataset.csv", lambda p: (_tamper_csv(p, 0, 1, "99999999999999999999"), _tamper_csv(p, 0, 2, "x")),
         "dataset.csv:1: invalid literal for int()"),
        # bytes that are not UTF-8, in every kind of file a fit or a verify reads
        ("part.txt", lambda p: p.write_bytes(b"0, a\n1, \xff\n"), "part.txt:2: byte 0xff is not UTF-8"),
        ("residuals.csv", lambda p: p.write_bytes(b"0,\xff\n"), "residuals.csv:1: byte 0xff is not UTF-8"),
        ("model.json", lambda p: p.write_bytes(b"\xff" + p.read_bytes()), "model.json:1: byte 0xff is not UTF-8"),
        ("selected.csv", lambda p: p.write_bytes(b"0,\xff,0,1.0\n"), "selected.csv:1: byte 0xff is not UTF-8"),
        # a selected.csv row is slot, label, in-block rank, eigenvalue
        ("selected.csv", "0,a,0,1.0,5\n", "selected.csv:1: inconsistent column count: expected 4 columns, got 5"),
        ("selected.csv", "0,a,0\n", "selected.csv:1: inconsistent column count: expected 4 columns, got 3"),
        # the rank-1 model keeps one record
        ("selected.csv", "0,a,0,1.0\n1,b,0,1.0\n", "selected.csv:2: more rows than the model's rank 1"),
        # a label that model.json's labels do not hold
        ("selected.csv", _unknown_label, "selected.csv:1: label 'zz' is not one of model.json's labels"),
        ("dataset.json", lambda p: p.write_bytes(b"\xff" + p.read_bytes()), "dataset.json:1: byte 0xff is not UTF-8"),
        ("model.json", "[" * 100000, "model.json is not valid JSON: maximum recursion depth exceeded"),
        # column 1 of an eigencurves row is the cell's center, which must be the grid's
        ("eigencurves.csv", lambda p: _tamper_csv(p, 0, 1, "abc"), "eigencurves.csv:1: could not convert"),
        ("eigencurves.csv", lambda p: _tamper_csv(p, 1, 1, "0.0"),
         "eigencurves.csv:2: cell 1 center (0.0,) is not the grid's (-0.125,)"),
        # a radius of 10^12 would need 2 * 10^12 + 1 translations: refused from the payload's size
        ("dataset.json", lambda p: _set_json(p, "trunc_radius", 10**12),
         "dataset.json: dim 1, cells_per_dim 4 and trunc_radius 1000000000000 give more samples"),
        ("dataset.json", _empty_binary_payload_of_huge_grid,
         "dataset.json: dim 1, cells_per_dim 2 and trunc_radius 1000000000000 give more samples"),
        # the partition labels positions 0 and 1 only
        ("seqs.txt", "0,0,1.0,0.0\n1,1,1.0,0.0\n2,5,1.0,0.0\n",
         "seqs.txt:3: position (5,) is not covered by the partition in "),

        # a model grid is checked against the data's before it sizes any array
        *(
            (f"{regime}:model.json", lambda p, f=field: _set_grid(p, f, 10**12),
             f"model.json: grid field '{field}' is 1000000000000, but the data's is {was}")
            for regime in ("sis", "extra", "pw")
            for field, was in (("trunc_radius", 1), ("cells_per_dim", 4))
        ),
        # a pw box must lie inside the grid: box 5 on the radius-1 grid is refused at load
        ("pw:model.json", lambda p: _set_json(p, "box_radius", 5),
         "model.json: field 'box_radius': box radius 5 exceeds the grid truncation radius 1"),
        # the model's rank sizes its generator table like a sequence index
        ("generators.txt", lambda p: _set_json(p.parent / "model.json", "rank", 10**12),
         "generators.txt: the model's rank 1000000000000 gives 1000000000000 sequences on 1 support points"),
        # a binary payload is refused at load, naming the file and the (generator or function, cell,
        # translation) index of its first non-finite sample; sample 5 of 4 cells x 3 translations
        ("generators.bin", lambda p: _nan_sample(p, 5), "generators.bin: non-finite sample at index (0, 1, 2)"),
        ("dataset.bin", _binary_payload_with_nan, "dataset.bin: non-finite sample at index (0, 1, 2)"),
        # a lattice of more than 2^20 cosets is refused before its section is built
        ("part.txt", "lattice: 10000000000\n", "part.txt:1: lattice basis has 10000000000 cosets, more than 1048576"),
        ("extra:model.json", lambda p: _set_json(p, "dual_lattice", "10000000000"),
         "model.json: field 'dual_lattice': lattice basis has 10000000000 cosets, more than 1048576"),
        # the rank-1 model has one generator
        ("model.json", lambda p: _set_json(p, "n_generators", 2), "model.json: field 'n_generators' must be 1, got 2"),
        # every model.json field is required
        ("model.json", lambda p: _drop_json(p, "regime"), "model.json: missing field 'regime'"),
        ("model.json", lambda p: _drop_json(p, "n_generators"), "model.json: missing field 'n_generators'"),
        ("discrete:model.json", lambda p: _drop_json(p, "labels"), "model.json: missing field 'labels'"),
        ("discrete:model.json", lambda p: _drop_json(p, "allocation"), "model.json: missing field 'allocation'"),
        # a lattice basis entry beyond int64
        ("part.txt", "lattice: 99999999999999999999\n",
         "part.txt:1: lattice basis entry 99999999999999999999 lies outside the int64 range"),
        ("extra:model.json", lambda p: _set_json(p, "dual_lattice", "99999999999999999999"),
         "model.json: field 'dual_lattice': lattice basis entry 99999999999999999999 lies outside the int64 range"),
        # an explicit position beyond int64, which no data position can match
        ("part.txt", "0, a\n1, b\n99999999999999999999, c\n",
         "part.txt:3: position (99999999999999999999,) outside the int64 range"),
        # a selected.csv slot and in-block rank are indices, its eigenvalue a finite float
        ("selected.csv", "0,a,x,1.0\n", "selected.csv:1: invalid literal for int() with base 10: 'x'"),
        ("selected.csv", "99999999999999999999,a,0,1.0\n",
         "selected.csv:1: index 99999999999999999999 outside the int64 range"),
        ("selected.csv", "0,a,0,nan\n", "selected.csv:1: non-finite value nan"),
        ("model.json", lambda p: _set_json(p, "regime", "foo"), "model.json: unknown regime 'foo'"),
        ("model.json", lambda p: _set_json(p, "rank", 0),
         "model.json: malformed field 'rank': ValueError('expected a positive integer, got 0')"),
        ("dataset.json", "[1, 2]\n", "dataset.json: expected a JSON object"),
    ],
    ids=[
        "manifest-dim-string", "manifest-m-bool", "manifest-m-float", "manifest-payload-null",
        "csv-translation-outside-box", "model-rank-float", "partition-columns", "partition-position",
        "partition-labeled-twice", "seqs-duplicate", "seqs-int64-overflow", "seqs-index-beyond-max-order",
        "pw-chosen-int64-overflow", "manifest-m-huge", "csv-nan", "generators-index-beyond-rank",
        "seqs-not-utf8", "seqs-int64-overflow-then-bad-token", "csv-int64-overflow-then-bad-token",
        "partition-not-utf8", "residuals-not-utf8", "model-json-not-utf8", "selected-not-utf8",
        "selected-too-many-columns", "selected-too-few-columns", "selected-beyond-rank", "selected-foreign-label",
        "manifest-not-utf8", "model-json-nested-too-deep", "eigencurves-center-not-a-number",
        "eigencurves-center-off-grid", "manifest-trunc-huge", "manifest-trunc-huge-empty-binary",
        "seqs-position-not-in-partition", "sis-model-trunc-huge", "sis-model-cells-huge",
        "extra-model-trunc-huge", "extra-model-cells-huge", "pw-model-trunc-huge", "pw-model-cells-huge",
        "pw-model-box-beyond-grid", "discrete-model-rank-huge", "generators-bin-nan", "dataset-bin-nan",
        "partition-lattice-index-huge", "extra-model-lattice-index-huge", "model-n-generators-not-rank",
        "model-without-regime", "model-without-n-generators", "discrete-model-without-labels",
        "discrete-model-without-allocation", "partition-lattice-entry-beyond-int64",
        "extra-model-lattice-entry-beyond-int64", "partition-position-beyond-int64",
        "selected-token-not-an-int", "selected-int64-overflow", "selected-nan", "model-regime-unknown",
        "model-rank-zero", "manifest-json-array",
    ],
)
def test_malformed_input_names_file_and_location(tmp_path, name, edit, location):
    data = tmp_path / "data"
    run_cli(
        "synth", "--family", "gaussian", "--sigma", 1, "--dim", 1, "--cells", 4,
        "--trunc", 1, "--payload-format", "csv", "--out", data,
    )
    seqs, part = tmp_path / "seqs.txt", tmp_path / "part.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n")
    part.write_text("0, a\n1, b\n")
    regime, _, name = name.rpartition(":")  # "pw:model.json" is the model.json of a pw fit
    regime = regime or ("pw" if name == "chosen.csv" else "sis")
    fit_sis = ("fit", "--regime", "sis", "--data", data / "dataset.json", "--rank", 1, "--out", tmp_path / "m")
    if regime != "discrete" and name in ("model.json", "chosen.csv", "residuals.csv", "eigencurves.csv",
                                         "generators.bin"):
        options = {"pw": ("--box", 1), "extra": ("--dual-lattice", "2")}.get(regime, ())
        fit = fit_sis[:2] + (regime,) + fit_sis[3:] + options
        assert run_cli(*fit).returncode == 0
        cmd = ("verify", "--model", tmp_path / "m", "--data", data / "dataset.json")
        path = tmp_path / "m" / name
    elif name in ("seqs.txt", "part.txt", "generators.txt", "selected.csv", "model.json"):
        cmd = ("fit", "--regime", "discrete", "--data", seqs, "--rank", 1, "--partition", part,
               "--out", tmp_path / "m")
        path = tmp_path / name
        if name in ("generators.txt", "selected.csv", "model.json"):
            assert run_cli(*cmd).returncode == 0
            cmd, path = ("verify", "--model", tmp_path / "m", "--data", seqs), tmp_path / "m" / name
    else:
        cmd, path = fit_sis, data / name
    if callable(edit):
        edit(path)
    else:
        path.write_text(edit)
    res = run_cli(*cmd)
    assert res.returncode == 2, res.stdout
    assert "Traceback" not in res.stderr
    assert location in res.stderr, res.stderr


@pytest.mark.parametrize("regime", ["sis", "extra", "pw", "discrete"])
def test_data_whose_energy_overflows_are_refused_where_they_are_read(tmp_path, regime):
    if regime == "discrete":
        model, _ = _fitted_discrete_model(tmp_path, run=run_in_process)
        flags = ("--partition", tmp_path / "part.txt")
    else:
        model, _ = _fitted_model(tmp_path, regime, run=run_in_process)
        flags = {"sis": (), "extra": ("--dual-lattice", "2"), "pw": ("--box", "1")}[regime]
    compare_flags = ("--boxes", "1") if regime == "pw" else flags
    # one sample of 1e160 squares beyond float64; two functions of 1e154 at
    # the same sample have an energy of 2e308 without the cell volume (1/4),
    # and so has the eigenvalue of their Gramian
    for functions, value in ((1, 1e160), (2, 1e154)):
        if regime == "discrete":
            data = tmp_path / f"huge{functions}.txt"
            data.write_text("".join(f"{j},0,{value!r},0.0\n" for j in range(functions)) + f"{functions},1,1.0,0.0\n")
        else:
            grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
            samples = np.zeros((functions, grid.n_cells, grid.n_translations), dtype=complex)
            samples[:, 0, 0] = value
            data = write_dataset(SpectralDataset(grid=grid, samples=samples), tmp_path / f"huge{functions}")
        for cmd in (("fit", "--regime", regime, "--rank", 1, *flags, "--out", tmp_path / "m"),
                    ("compare", "--regimes", regime, "--ranks", 1, *compare_flags),
                    ("verify", "--model", model)):
            res = run_in_process(*cmd, "--data", data)
            assert res.returncode == 2, res.stdout
            assert res.stdout == (f"regime: {regime}\n" if cmd[0] == "verify" else "")
            assert res.stderr == f"error: {data}: the energy of the samples overflows float64\n"  # no Warning


@pytest.mark.parametrize("regime,flags", [("sis", ()), ("extra", ("--dual-lattice", "2"))])
def test_a_cell_whose_energy_nears_the_float64_maximum_fits_and_verifies(tmp_path, regime, flags):
    # cell 0 holds an energy of about 1.12e308 over two functions (the cell
    # volume, 1/2, aside): allocation_residual sums eigenvalues near the
    # float64 maximum, and _assemble scales by lambda^(-1/2) of one
    grid = SpectralGrid(dim=1, cells_per_dim=2, trunc_radius=1)
    samples = np.zeros((2, grid.n_cells, grid.n_translations), dtype=complex)
    samples[0, 0, :2] = 0.9e154, 0.45e154
    samples[1, 0, 1:] = 0.27e154, 0.18e154
    data = write_dataset(SpectralDataset(grid=grid, samples=samples), tmp_path / "near")
    res = run_cli("fit", "--regime", regime, "--rank", 1, *flags, "--data", data, "--out", tmp_path / "m")
    assert (res.returncode, res.stderr) == (0, ""), res.stdout
    res = run_cli("verify", "--model", tmp_path / "m", "--data", data)
    assert (res.returncode, res.stderr) == (0, ""), res.stdout


@pytest.mark.parametrize("regime,flags", [("sis", ()), ("extra", ("--dual-lattice", "2"))])
def test_one_sample_whose_gramian_nears_the_float64_maximum_fits_and_verifies(tmp_path, regime, flags):
    # |1e154|^2 = 1e308 is finite, but doubles to inf if the Gramian is
    # symmetrized as (G + G^H)/2
    grid = SpectralGrid(dim=1, cells_per_dim=4, trunc_radius=1)
    samples = np.zeros((1, grid.n_cells, grid.n_translations), dtype=complex)
    samples[0, 0, 0] = 1e154
    data = write_dataset(SpectralDataset(grid=grid, samples=samples), tmp_path / "near", payload_format="csv")
    res = run_cli("fit", "--regime", regime, "--rank", 1, *flags, "--data", data, "--out", tmp_path / "m")
    assert (res.returncode, res.stderr) == (0, ""), res.stdout
    assert report_value(res.stdout, "error") == "0.0"
    res = run_cli("verify", "--model", tmp_path / "m", "--data", data)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.endswith("result: pass\n")
    assert "1e+308" in (tmp_path / "m" / "eigencurves.csv").read_text()


def _eigh_that_does_not_converge(h):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("partition", ["lattice: 2\n", "0, a\n1, b\n"])
def test_verify_of_data_of_another_dimension_names_the_model_field(tmp_path, capsys, partition):
    # the model's own partition is not to blame: its dimension is checked
    # against the data's before that file is read
    seqs, seqs2, part = tmp_path / "seqs.txt", tmp_path / "seqs2.txt", tmp_path / "part.txt"
    seqs.write_text("0,0,1.0,0.0\n1,1,1.0,0.0\n")
    seqs2.write_text("0,0,0,1.0,0.0\n1,1,0,1.0,0.0\n")
    part.write_text(partition)
    model = tmp_path / "m"
    assert cli.main(["fit", "--regime", "discrete", "--data", str(seqs), "--rank", "1", "--partition", str(part),
                     "--out", str(model)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--model", str(model), "--data", str(seqs2)]) == 2
    assert capsys.readouterr() == ("regime: discrete\n",
                                   f"error: {model / 'model.json'}: field 'dim' is 1, but the data's is 2\n")
    assert cli.main(["verify", "--model", str(model), "--data", str(seqs)]) == 0


_MANIFEST_VALUES = [0, -1, 2.5, "1", True, None, 2**63, 10**30, "", [], {}]


def test_every_manifest_field_mutation_exits_2_naming_the_manifest(tmp_path, capsys):
    # each of the six fields set to each value above, or dropped: fit exits 2 with one line naming the
    # manifest, or naming the payload where its size is what does not match the manifest's m
    manifest = write_dataset(random_dataset(np.random.default_rng(3), cells=4, trunc=1, m=1), tmp_path / "data")
    meta = json.loads(manifest.read_text())
    assert len(meta) == 6
    payload = manifest.parent / meta["payload_path"]
    named = {}
    for key in meta:
        for value in [*_MANIFEST_VALUES, "drop"]:
            bad = {k: (value if k == key else v) for k, v in meta.items() if not (k == key and value == "drop")}
            manifest.write_text(json.dumps(bad))
            fit = ["fit", "--regime", "sis", "--data", str(manifest), "--rank", "1", "--out", str(tmp_path / "m")]
            assert cli.main(fit) == 2, (key, value)
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (key, value, err)
            named[key, repr(value)] = next(f for f in (manifest, payload) if err.startswith(f"error: {f}"))
    assert len(named) == 72
    assert {k for k, f in named.items() if f == payload} == {("m", repr(2**63)), ("m", repr(10**30))}


def test_eigensolver_that_does_not_converge_is_a_usage_error(tmp_path, rng, monkeypatch, capsys):
    manifest = write_dataset(random_dataset(rng, cells=4, trunc=1, m=2), tmp_path / "data")
    monkeypatch.setattr(hermitian, "eigh", _eigh_that_does_not_converge)
    argv = ["fit", "--regime", "sis", "--rank", "1", "--data", str(manifest), "--out", str(tmp_path / "model")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: eigensolver did not converge")


def test_fit_of_gramians_above_order_256_matches_a_per_cell_oracle(tmp_path, capsys):
    # 300 functions on 361 translations: every fiber Gramian is solved on its 300 x 300 side
    grid = SpectralGrid(dim=2, cells_per_dim=2, trunc_radius=9)
    rng = np.random.default_rng(24)
    shape = (300, grid.n_cells, grid.n_translations)
    ds = SpectralDataset(grid=grid, samples=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    manifest = write_dataset(ds, tmp_path / "data")
    assert cli.main(["fit", "--regime", "sis", "--rank", "5", "--data", str(manifest),
                     "--out", str(tmp_path / "model")]) == 0
    error = float(report_value(capsys.readouterr().out, "error"))
    expect = 0.0
    for g in range(grid.n_cells):
        f = ds.samples[:, g, :]
        expect += float(np.linalg.eigvalsh(f @ f.conj().T)[:-5].sum())
    expect *= grid.cell_volume
    assert abs(error - expect) <= 1e-12 * expect


def test_a_rank_deficient_gramian_near_the_float64_maximum_fits_without_a_warning(tmp_path):
    # Gramian entries of about 1e306 whose third eigenvalue is rounding noise
    # below zero: the squares of a Frobenius norm for its clamp overflowed, but
    # the eigenvalues that scale the clamp now do not
    grid = SpectralGrid(dim=1, cells_per_dim=2, trunc_radius=1)
    rng = np.random.default_rng(1)
    samples = np.zeros((3, grid.n_cells, grid.n_translations), dtype=complex)
    samples[:2, 0] = 1e153 * (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    samples[2] = samples[0]
    data = write_dataset(SpectralDataset(grid=grid, samples=samples), tmp_path / "near")
    res = run_cli("fit", "--regime", "sis", "--rank", 1, "--data", data, "--out", tmp_path / "m")
    assert (res.returncode, res.stderr) == (0, ""), res.stdout


@pytest.mark.parametrize("dim, trunc, message", [
    (40, 1, "error: grid dim 40, cells_per_dim 2 and trunc_radius 1 need an array of "
            "4277598252429994901708430712504320 bytes, more than NumPy can index\n"),
    (1, 10**20, "error: grid dim 1, cells_per_dim 2 and trunc_radius 100000000000000000000 need an array of "
                "6400000000000000000032 bytes, more than NumPy can index\n"),
    # 2^56 bytes: an array NumPy can index, but more than any host can map
    (1, 2**50, "error: Unable to allocate 16.0 PiB "),
], ids=["dim-40", "trunc-10^20", "trunc-2^50"])
def test_synth_of_a_grid_beyond_numpy_or_the_host_is_a_usage_error(tmp_path, capsys, dim, trunc, message):
    argv = ["synth", "--family", "gaussian", "--sigma", "1", "--dim", str(dim), "--cells", "2", "--trunc", str(trunc),
            "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not any(tmp_path.iterdir())


def test_lattice_entry_beyond_int64_is_a_usage_error(tmp_path, rng, capsys):
    data, _ = _regime_input(tmp_path, rng, "sis")
    for argv in (["fit", "--regime", "extra", "--rank", "1", "--out", str(tmp_path)],
                 ["compare", "--regimes", "sis,extra", "--ranks", "1"]):
        assert cli.main(argv + ["--data", data, "--dual-lattice", "99999999999999999999"]) == 2
        assert capsys.readouterr().err == "error: lattice basis entry 99999999999999999999 lies outside the int64 range\n"


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert cli.main(["synth", "--family", "gaussian", "--sigma", "1", "--dim", "2", "--cells", "2", "--trunc", "1",
                     "--out", str(out)]) == 0
    return str(out / "dataset.json")


# each command sets one integer flag to "{}"; the data are a 2-d grid of 2 cells per axis and radius 1
_ONE_FLAG = {
    "fit-sis-rank": ["fit", "--regime", "sis", "--rank", "{}"],
    "fit-extra-rank": ["fit", "--regime", "extra", "--dual-lattice", "2 0;0 1", "--rank", "{}"],
    "fit-pw-rank": ["fit", "--regime", "pw", "--box", "1", "--rank", "{}"],
    "fit-pw-box": ["fit", "--regime", "pw", "--rank", "1", "--box", "{}"],
    "compare-ranks": ["compare", "--regimes", "sis,extra,pw", "--dual-lattice", "2 0;0 1", "--ranks", "{}"],
    "compare-boxes": ["compare", "--regimes", "pw", "--ranks", "1", "--boxes", "{}"],
    **{f"fit-dual-lattice-{i}": ["fit", "--regime", "extra", "--rank", "1", "--dual-lattice",
                                 "%s %s;%s %s" % tuple("{}" if j == i else e for j, e in enumerate("2001"))]
       for i in range(4)},
    "synth-dim": ["synth", "--dim", "{}", "--cells", "2", "--trunc", "1"],
    "synth-cells": ["synth", "--dim", "2", "--cells", "{}", "--trunc", "1"],
    "synth-trunc": ["synth", "--dim", "2", "--cells", "2", "--trunc", "{}"],
}


# no value between 2 and 2^63 - 1: a rank or grid of 2^20 to 2^40 could make
# NumPy reserve or write gigabytes before it is refused
@pytest.mark.parametrize("value", [-1, 0, 1, 2, 2**63 - 1, 2**63, 10**20])
@pytest.mark.parametrize("command", list(_ONE_FLAG))
def test_no_integer_flag_ends_in_a_traceback(tmp_path, small_manifest, command, value):
    argv = [a.replace("{}", str(value)) for a in _ONE_FLAG[command]]
    if argv[0] == "synth":
        argv += ["--family", "gaussian", "--sigma", "1", "--out", str(tmp_path)]
    else:
        argv += ["--data", small_manifest] + (["--out", str(tmp_path)] if argv[0] == "fit" else [])
    assert cli.main(argv) in (0, 1, 2)
