"""The benchmark's own ``text-io`` inputs through the CLI, in process.

The benchmark writes every CSV payload in sample order, so its runs take
only the in-order side of the keyed-table rule.  Here the ``pw`` commands
of the workload run once on the payload as written and once on a copy
with its rows shuffled, which takes the general side, and must answer
byte for byte alike.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from sisfit import cli

ROOT = Path(__file__).resolve().parents[1]


def _workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module, imported without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _answers(ops, inputs: Path, models: Path) -> tuple:
    """The exit code and stdout of each command (timing lines aside), then
    the bytes of every model file but ``report.txt``."""
    outputs = []
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.resolve(inputs, models))
        outputs.append((code, [ln for ln in out.getvalue().splitlines() if not ln.startswith("timing_seconds:")]))
    files = {str(p.relative_to(models)): p.read_bytes() for p in sorted(models.rglob("*"))
             if p.is_file() and p.name != "report.txt"}
    return outputs, files


def test_a_shuffled_text_io_payload_gives_the_same_pw_answers(tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    written, shuffled, models = tmp_path / "written", tmp_path / "shuffled", tmp_path / "models"
    workloads.write_inputs("text-io", 2001, written)
    shuffled.mkdir()
    (shuffled / "pw.json").write_bytes((written / "pw.json").read_bytes())
    rows = (written / "pw.csv").read_bytes().splitlines(keepends=True)
    assert len(rows) == 4 * 144 * 49
    order = np.random.default_rng(33).permutation(len(rows))
    (shuffled / "pw.csv").write_bytes(b"".join(rows[i] for i in order))

    ops = [op for op in workloads.ops("text-io") if any("pw.json" in a for a in op.argv)]
    assert sorted(op.kind for op in ops) == ["compare", "fit", "fit", "verify"]
    as_written = _answers(ops, written, models)
    assert [code for code, _ in as_written[0]] == [0, 0, 0, 0]
    assert sorted(as_written[1]) == ["pw-t2/chosen.csv", "pw-t2/model.json", "pw-t2/residuals.csv",
                                     "pw/chosen.csv", "pw/model.json", "pw/residuals.csv"]
    assert _answers(ops, shuffled, models) == as_written
