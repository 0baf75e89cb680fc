"""End-to-end and per-layer benchmark of the sisfit command line.

    python3 perfbench/run.py --workload sis-fibers --seed 1 --seconds 20 --trace 0

Each workload writes seeded inputs with sisfit's own writers, then runs
passes of CLI commands (``sisfit.cli.main(argv)`` in-process, output
captured), closed loop, until ``--seconds`` have passed.  Every command is
checked against a LAPACK oracle, and model files are compared byte for byte
across passes and thread counts.  Times are rescaled to a fixed host speed
with the gauge in ``gauge.py``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` adds a traced half and reports per-layer metrics.
The last line of standard output is one JSON object; full results go to
``perfbench/out/BENCH_<workload>_s<seed>_t<trace>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.machinery
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"

END_TO_END = {
    "fit_s": "s",
    "fit_threads2_s": "s",
    "verify_s": "s",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# end-to-end metrics sampled once per pass
PASS_METRICS = ("fit_s", "fit_threads2_s", "verify_s", "sweep_s")
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120


class Setup:
    """Writes the workload's inputs in a fresh interpreter, and times it.

    The first call leaves its files as the run's inputs.  Later calls, one
    after each timed pass so that the samples spread over the whole run,
    write to a scratch directory, must write the same bytes, and only add a
    time.  Each call returns its problems, empty when there are none.
    """

    def __init__(self, name: str, seed: int, work: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workloads.SRC), self.env.get("PYTHONPATH")]))
        self.name, self.seed, self.work = name, seed, work
        self.inputs = work / "inputs"
        self.seconds, self.walls = [], []  # scaled, wall
        self.digest = None

    def __call__(self) -> list[str]:
        out = self.inputs if self.digest is None else self.work / "setup-check"
        cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", self.name, "--seed", str(self.seed), "--out", str(out)]
        _, wall, speed = gauge.timed(
            lambda: subprocess.run(cmd, env=self.env, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
        )
        self.seconds.append(gauge.scaled(wall, speed))
        self.walls.append(wall)
        d = workloads.digest(out)
        if self.digest is None:
            self.digest = d
            return []
        shutil.rmtree(out)
        return [] if d == self.digest else ["repeated set-up wrote different input bytes"]


class Runner:
    """Runs passes of one workload's commands and checks every result."""

    def __init__(self, name: str, seed: int, inputs: Path, models: Path, reference):
        from sisfit import cli

        self.name = name
        self.seed = seed
        self.cli = cli
        self.ops = workloads.ops(name)
        self.inputs = inputs
        self.models = models
        self.reference = reference
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digest = {}
        self.op_id = 0

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a traceback is a failed operation, not a crash
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def run_op(self, op, pass_digests: dict) -> tuple:
        """Run one command, check it, and return (wall seconds, mean tick).

        Traced commands read the host's speed only around the command, so
        that no tick lands inside a span."""
        argv = op.resolve(self.inputs, self.models)
        if op.model:
            shutil.rmtree(self.models / op.model, ignore_errors=True)
        self.op_id += 1
        gc.collect()
        if self.tracer is not None:
            self.tracer.op = self.op_id

            def call():
                with self.tracer.span(f"op.{op.kind}"):
                    return self._call(argv)
        else:

            def call():
                return self._call(argv)

        (rc, stdout, stderr), wall, speed = gauge.timed(call, inside=self.tracer is None)
        self.record(" ".join(argv), self.check(op, rc, stdout, stderr, pass_digests))
        return wall, speed

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"op": what, "problems": problems})

    def check(self, op, rc, stdout: str, stderr: str, pass_digests: dict) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}: {stderr.strip()[-400:]}"]
        if op.kind == "verify":
            return [] if "result: pass" in stdout else [f"verify did not pass: {stdout.strip()[-400:]}"]
        if op.kind == "compare":
            return oracle.check_compare(self.reference, op.expect, stdout)
        model_dir = self.models / op.model
        problems = oracle.check_model(self.reference, op.expect[0], model_dir)
        d = workloads.digest(model_dir, skip=("report.txt",))
        pass_digests[op.model] = d
        if d != self.first_digest.setdefault(op.model, d):
            problems.append(f"model files of {op.model} differ from the first pass")
        if op.same_as and d != pass_digests.get(op.same_as):
            problems.append(f"model files of {op.model} differ from {op.same_as}")
        return problems

    def run_pass(self) -> dict:
        """One pass: every op in order, each ``op.repeat`` times.  Returns
        (wall seconds, mean tick) of each run of each op, keyed by op index."""
        samples = defaultdict(list)
        digests = {}
        if self.tracer is not None:
            # the traced pass also rewrites the inputs, to trace the writers
            self.op_id += 1
            self.tracer.op = self.op_id
            with self.tracer.span("op.setup"):
                workloads.write_inputs(self.name, self.seed, self.inputs)
        for i, op in enumerate(self.ops):
            for _ in range(op.repeat):
                samples[i].append(self.run_op(op, digests))
        return dict(samples)


def measure(runner: Runner, seconds: float, min_passes: int, on_pass=None, warmup: bool = True) -> list[dict]:
    """Closed loop: start a pass whenever the previous one has returned,
    until ``seconds`` have elapsed and at least ``min_passes`` ran.

    A warm-up pass runs first; its commands are checked, not timed."""
    if warmup:
        runner.run_pass()
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        first_op = runner.op_id + 1
        passes.append(runner.run_pass())
        if on_pass is not None:
            on_pass(first_op, runner.op_id)
    return passes


def op_samples(passes: list[dict], index: int) -> list[tuple]:
    return [sample for p in passes for sample in p.get(index, [])]


def metric_value(ops, passes: list[dict], metric: str, scale: bool = True) -> float:
    """Sum over the metric's ops of the op's mean time per run: scaled to
    the gauge's reference speed, or the raw wall time with ``scale=False``."""
    return sum(
        statistics.fmean(gauge.scaled(w, g) if scale else w for w, g in op_samples(passes, i))
        for i, op in enumerate(ops)
        if op.metric == metric
    )


def git_commit() -> str:
    git = workloads.ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts(name: str, seed: int) -> dict:
    """What a number depends on besides the code: machine, versions,
    kernel backend, compiled extensions."""
    import numpy

    try:
        from sisfit.kernels import ACTIVE_BACKEND as backend
    except ImportError:
        backend = "absent (no sisfit.kernels)"
    compiled = []
    for path in sorted((workloads.SRC / "sisfit").glob("_jacobi*")):
        suffix = next((s for s in importlib.machinery.EXTENSION_SUFFIXES if path.name.endswith(s)), None)
        if suffix is None:
            continue
        try:
            importlib.import_module("sisfit." + path.name[: -len(suffix)])
        except ImportError:
            continue
        compiled.append(path.name)
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "compiled_jacobi_extensions": compiled,
        "commit": git_commit(),
        "gauge_reference_s": gauge.REFERENCE_S,
        "blas_threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS") if k in os.environ},
    }


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    work.mkdir(parents=True)
    setup = Setup(name, seed, work)
    setup()
    generated = workloads.generate(name, seed)
    keys = {key for op in workloads.ops(name) for key in op.expect}
    reference = oracle.Reference(generated, keys)
    runner = Runner(name, seed, setup.inputs, work / "models", reference)
    if "seqs" in generated:
        runner.record("brute_force_optimal", oracle.check_brute_force(reference, generated["seqs"], 4))

    result = {"facts": machine_facts(name, seed), "samples": {}, "metrics": {}, "wall_metrics": {}}
    if not trace:
        passes = measure(runner, seconds, MIN_PASSES, on_pass=lambda *_: runner.record("setup", setup()))
        for metric in PASS_METRICS:
            result["samples"][metric] = [
                metric_value(runner.ops, [p], metric) for p in passes
            ]
            result["metrics"][metric] = metric_value(runner.ops, passes, metric)
            result["wall_metrics"][metric] = metric_value(runner.ops, passes, metric, scale=False)
        # every run of every command: [wall seconds, mean tick]
        result["op_samples"] = {
            " ".join(op.argv): op_samples(passes, i) for i, op in enumerate(runner.ops)
        }
        result["samples"]["setup_s"] = setup.seconds
        result["metrics"]["setup_s"] = statistics.median(setup.seconds)
        result["wall_metrics"]["setup_s"] = statistics.median(setup.walls)
        result["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    else:
        untraced = measure(runner, seconds / 2, 1)
        tr = tracing.Tracer()
        layer_passes = []

        def collect(first_op, last_op):
            spans = [s for s in tr.spans if first_op <= s[5] <= last_op]
            layer_passes.append(tracing.layer_metrics(spans, tr.counts))
            tr.counts.clear()

        runner.tracer = tr
        with tr:
            traced = measure(runner, seconds / 2, 1, on_pass=collect, warmup=False)
        runner.tracer = None
        for metric in layer_passes[0]:
            result["samples"][metric] = [p[metric] for p in layer_passes]
            result["metrics"][metric] = statistics.median(result["samples"][metric])
        for metric in PASS_METRICS:
            result["metrics"][f"trace.overhead_s.{metric}"] = (
                metric_value(runner.ops, traced, metric, scale=False)
                - metric_value(runner.ops, untraced, metric, scale=False)
            )
        result["metrics"].update(tracing.kernel_ms_per_matrix(seed))
        result["absent_layers"] = tr.absent_layers()
        result["absent_wrap_points"] = tr.absent
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"spans_{name}_s{seed}.jsonl")
        units = per_layer_units()
    result["units"] = units
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["problems"] = runner.problems
    return result


def per_layer_units() -> dict:
    units = {m: "s" for m in tracing.TIMES}
    units.update(tracing.COUNTS)
    units["hermitian.order_mean"] = "rows"
    units["parallel.thread_wall_s"] = "s"
    units["parallel.efficiency"] = "ratio"
    for metric in PASS_METRICS:
        units[f"trace.overhead_s.{metric}"] = "s"
    for n in tracing.MICRO_MATRICES:
        units[f"kernels.ms_per_matrix.o{n}"] = "ms"
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sisfit end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads.require_source_tree()

    work = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = result["units"]
    metrics = {m: {"value": result["metrics"].get(m, 0.0), "unit": u} for m, u in units.items()}
    correct = result["failed"] == 0
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json", "w") as fh:
        json.dump({**result, "correct": correct, "seconds": args.seconds}, fh, indent=1, sort_keys=True)

    print("facts: " + json.dumps(result["facts"], sort_keys=True))
    if args.trace:
        print(f"absent layers: {', '.join(result['absent_layers']) or 'none'}")
    for m, entry in metrics.items():
        n = len(result["samples"].get(m, [])) or 1
        wall = result["wall_metrics"].get(m)
        raw = f"  wall {wall:.6g} s" if wall is not None else ""
        print(f"{m:<34} {entry['value']:>14.6g} {entry['unit']:<6} (n={n}){raw}")
    for p in result["problems"]:
        print(f"FAILED: {p['op']}: {'; '.join(p['problems'])}")
    print(f"oracle checks: {'all passed' if correct else 'FAILED'} ({result['failed']} of {result['attempted']} operations failed)")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
