"""Self-tests of the benchmark: deterministic inputs, repeatable traced
counts, a tracer that leaves sisfit as it found it, and oracle checks that
catch a wrong result.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import importlib
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402

workloads.require_source_tree()

import gauge  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_writes_identical_inputs(tmp_path, name):
    workloads.write_inputs(name, 5, tmp_path / "a")
    workloads.write_inputs(name, 5, tmp_path / "b")
    workloads.write_inputs(name, 6, tmp_path / "c")
    assert workloads.digest(tmp_path / "a") == workloads.digest(tmp_path / "b")
    assert workloads.digest(tmp_path / "a") != workloads.digest(tmp_path / "c")


def test_gauge_takes_its_ticks_out_of_the_wall_time():
    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        return "done"

    result, wall, speed = gauge.timed(busy)
    assert result == "done"
    # ticks ran inside, so less than the 0.2 s the loop took is left
    assert 0.0 < wall < 0.2 and speed > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    _, outside, _ = gauge.timed(busy, inside=False)
    assert outside >= 0.2


def _originals():
    return {
        (m, a): getattr(importlib.import_module(m), a)
        for m, a, _ in tracing.WRAP_POINTS
    }


def test_tracer_restores_every_attribute():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tr:
            assert not tr.absent
            assert all(_originals()[k] is not v for k, v in before.items())
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[k] is v for k, v in before.items())


def test_missing_wrap_point_is_an_absent_layer(monkeypatch):
    points = tracing.WRAP_POINTS + (
        ("sisfit.hermitian", "no_such_kernel", "gone.kernel"),
        ("sisfit.no_such_module", "f", "gone.other"),
    )
    monkeypatch.setattr(tracing, "WRAP_POINTS", points)
    with tracing.Tracer() as tr:
        pass
    assert tr.absent == ["sisfit.hermitian.no_such_kernel", "sisfit.no_such_module.f"]
    assert tr.absent_layers() == ["gone"]


def test_self_time_subtracts_children_through_the_pool():
    spans = [
        [1, "sis.fit_sis", 0.0, 10.0, 0, 1],
        [2, "parallel.run_chunked", 1.0, 9.0, 1, 1],
        [3, "parallel.chunk", 1.0, 9.0, 2, 1],
        [4, "hermitian.eig_hermitian", 2.0, 5.0, 3, 1],
        [5, "kernels.jacobi_cycle", 2.5, 4.5, 4, 1],
        [6, "hermitian.eig_hermitian", 4.0, 6.0, 3, 1],  # overlaps span 4
    ]
    times = tracing.span_times(spans)
    assert times["self"]["sis.fit_sis"] == pytest.approx(10.0 - 4.0)
    assert times["self"]["hermitian.eig_hermitian"] == pytest.approx(3.0 - 2.0 + 2.0)
    assert times["total"]["parallel.chunk"] == pytest.approx(8.0)


def _exact_counts(result):
    return {
        k: v
        for k, v in result["metrics"].items()
        if k.endswith(("_calls", "sweeps_total", "bytes_written", "ingest_bytes", "chunks"))
    }


def test_traced_counts_repeat_exactly(tmp_path):
    first = run.run("extra-wide", 3, 0.0, True, tmp_path / "one")
    second = run.run("extra-wide", 3, 0.0, True, tmp_path / "two")
    counts = _exact_counts(first)
    assert counts["kernels.jacobi_calls"] > 0 and counts["spectral.ingest_bytes"] > 0
    assert counts == _exact_counts(second)
    assert first["failed"] == 0 and first["absent_layers"] == []


def test_oracle_rejects_a_wrong_model(tmp_path):
    ref = oracle.Reference(workloads.generate("extra-wide", 1), [("sis", 4)])
    good = ref.rows[("sis", 4)]["error"]
    (tmp_path / "model.json").write_text(json.dumps({"error": good}))
    assert oracle.check_model(ref, ("sis", 4), tmp_path) == []
    (tmp_path / "model.json").write_text(json.dumps({"error": good * (1 + 1e-6)}))
    assert oracle.check_model(ref, ("sis", 4), tmp_path)


def test_compare_table_parse_and_check():
    ref = oracle.Reference(workloads.generate("extra-wide", 1), [("sis", 4), ("extra", 4)])
    sis, extra = ref.rows[("sis", 4)]["error"], ref.rows[("extra", 4)]["error"]
    header = f"{'regime':<9} {'rank':>4} {'box':>4} {'error':>24} {'tail':>24} {'total':>24}"
    table = "\n".join(
        [header]
        + [f"{r:<9} {4:>4} {'':>4} {e!r:>24} {'':>24} {e!r:>24}" for r, e in (("sis", sis), ("extra", extra))]
    )
    assert oracle.check_compare(ref, [("sis", 4), ("extra", 4)], table) == []
    assert oracle.check_compare(ref, [("sis", 4)], table)
    assert oracle.check_compare(ref, [("sis", 4), ("extra", 4)], table.replace(repr(extra), repr(extra * 2)))
