"""Span tracing of sisfit's layers from outside the package.

``Tracer.install()`` rebinds the names that calling modules import (for
example ``sisfit.hermitian.jacobi_cycle`` or ``sisfit.cli.fit_sis``) to
wrappers that record a span per call: (id, name, start, end, parent,
operation).  Spans stay in memory; ``layer_metrics`` turns the spans of one
pass into the per-layer numbers, and ``uninstall`` puts every original
back.  A wrap point whose module or attribute no longer exists is recorded
as absent instead of failing, so the benchmark keeps running when a layer
is removed.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  The module is where the caller looks
# the name up, which is not always where it is defined.
WRAP_POINTS = (
    ("sisfit.hermitian", "jacobi_cycle", "kernels.jacobi_cycle"),
    ("sisfit.sis", "eig_hermitian", "hermitian.eig_hermitian"),
    ("sisfit.extra", "eig_hermitian", "hermitian.eig_hermitian"),
    ("sisfit.discrete", "eig_hermitian", "hermitian.eig_hermitian"),
    ("sisfit.cli", "fit_sis", "sis.fit_sis"),
    ("sisfit.sis", "error_sis", "sis.error_sis"),
    ("sisfit.cli", "project_onto", "sis.project_onto"),
    ("sisfit.cli", "fit_extra_invariant", "extra.fit_extra_invariant"),
    ("sisfit.extra", "error_extra", "extra.error_extra"),
    ("sisfit.cli", "verify_extra_invariance", "extra.verify_extra_invariance"),
    ("sisfit.cli", "fit_multitile", "multitile.fit_multitile"),
    ("sisfit.cli", "verify_multitile", "multitile.verify_multitile"),
    ("sisfit.multitile", "multitile_spectra", "multitile.multitile_spectra"),
    ("sisfit.storage", "multitile_spectra", "multitile.multitile_spectra"),
    ("sisfit.cli", "ingest", "spectral.ingest"),
    ("sisfit.spectral", "write_dataset", "spectral.write_dataset"),
    ("sisfit.storage", "save_model", "storage.save_model"),
    ("sisfit.storage", "load_model", "storage.load_model"),
    ("sisfit.cli", "parse_discrete_dataset", "discrete.parse_discrete_dataset"),
    ("sisfit.discrete", "parse_discrete_dataset", "discrete.parse_discrete_dataset"),
    ("sisfit.cli", "parse_partition", "discrete.parse_partition"),
    ("sisfit.storage", "parse_partition", "discrete.parse_partition"),
    ("sisfit.cli", "fit_discrete", "discrete.fit_discrete"),
    ("sisfit.discrete", "error_discrete", "discrete.error_discrete"),
    ("sisfit.extra", "coset_of", "lattice.coset_of"),
    ("sisfit.discrete", "coset_of", "lattice.coset_of"),
    ("sisfit.sis", "run_chunked", "parallel.run_chunked"),
    ("sisfit.extra", "run_chunked", "parallel.run_chunked"),
    ("sisfit.multitile", "run_chunked", "parallel.run_chunked"),
    ("sisfit.cli", "cmd_fit", "cli.cmd_fit"),
    ("sisfit.cli", "cmd_verify", "cli.cmd_verify"),
    ("sisfit.cli", "cmd_compare", "cli.cmd_compare"),
    ("sisfit.cli", "_verify_spectral", "cli._verify_spectral"),
    ("sisfit.cli", "_verify_pw", "cli._verify_pw"),
    ("sisfit.cli", "_verify_discrete", "cli._verify_discrete"),
    ("sisfit.cli", "_parseval_check", "cli._parseval_check"),
)

# thread-pool bookkeeping; its children count toward the layer that
# called run_chunked when self time is computed
TRANSPARENT = frozenset({"parallel.run_chunked", "parallel.chunk"})

CLI_VERIFY = ("cli.cmd_verify", "cli._verify_spectral", "cli._verify_pw", "cli._verify_discrete", "cli._parseval_check")

# per-layer metric -> (how, span names); "self" subtracts child spans,
# "total" is the inclusive duration
TIMES = {
    "kernels.jacobi_s": ("total", ("kernels.jacobi_cycle",)),
    "hermitian.eig_self_s": ("self", ("hermitian.eig_hermitian",)),
    "sis.fit_self_s": ("self", ("sis.fit_sis",)),
    "sis.error_self_s": ("self", ("sis.error_sis",)),
    "sis.project_s": ("total", ("sis.project_onto",)),
    "extra.fit_self_s": ("self", ("extra.fit_extra_invariant",)),
    "extra.error_self_s": ("self", ("extra.error_extra",)),
    "extra.verify_s": ("total", ("extra.verify_extra_invariance",)),
    "spectral.ingest_s": ("total", ("spectral.ingest",)),
    "spectral.write_s": ("total", ("spectral.write_dataset",)),
    "storage.save_s": ("total", ("storage.save_model",)),
    "storage.load_s": ("total", ("storage.load_model",)),
    "multitile.fit_s": ("total", ("multitile.fit_multitile",)),
    "multitile.spectra_s": ("total", ("multitile.multitile_spectra",)),
    "multitile.verify_s": ("total", ("multitile.verify_multitile",)),
    "cli.fit_self_s": ("self", ("cli.cmd_fit",)),
    "cli.verify_self_s": ("self", CLI_VERIFY),
    "cli.compare_self_s": ("self", ("cli.cmd_compare",)),
    "discrete.parse_s": ("total", ("discrete.parse_discrete_dataset",)),
    "discrete.partition_s": ("total", ("discrete.parse_partition",)),
    "discrete.fit_self_s": ("self", ("discrete.fit_discrete",)),
    "discrete.error_self_s": ("self", ("discrete.error_discrete",)),
    "lattice.coset_s": ("total", ("lattice.coset_of",)),
    "parallel.wall_s": ("total", ("parallel.run_chunked",)),
    "parallel.busy_s": ("total", ("parallel.chunk",)),
}

COUNTS = {
    "kernels.jacobi_calls": "count",
    "kernels.sweeps_total": "count",
    "kernels.sweeps_max": "count",
    "kernels.unconverged": "count",
    "kernels.rotations_bound": "count",
    "hermitian.eig_calls": "count",
    "spectral.ingest_bytes": "B",
    "storage.bytes_written": "B",
    "lattice.coset_calls": "count",
    "parallel.chunks": "count",
}


def _on_jacobi(tracer, args, result):
    c = tracer.counts
    n = args[0].shape[0]
    sweeps = args[5] if result < 0 else result
    c["kernels.jacobi_calls"] += 1
    c["kernels.sweeps_total"] += sweeps
    c["kernels.unconverged"] += result < 0
    # computed, not counted: each sweep visits every pair once
    c["kernels.rotations_bound"] += sweeps * n * (n - 1) // 2
    c["kernels.sweeps_max"] = max(c["kernels.sweeps_max"], sweeps)


def _on_eig(tracer, args, result):
    tracer.counts["hermitian.eig_calls"] += 1
    tracer.counts["hermitian.order_sum"] += len(args[0])


def _on_coset(tracer, args, result):
    tracer.counts["lattice.coset_calls"] += 1


def _on_ingest(tracer, args, result):
    tracer.counts["spectral.ingest_bytes"] += tracer.ingest_size(args[0])


def _on_save(tracer, args, result):
    # the benchmark empties a model directory before each fit, so
    # everything in it now was written by this call
    model_dir = Path(result).parent
    tracer.counts["storage.bytes_written"] += sum(p.stat().st_size for p in model_dir.iterdir() if p.is_file())


HOOKS = {
    "kernels.jacobi_cycle": _on_jacobi,
    "hermitian.eig_hermitian": _on_eig,
    "lattice.coset_of": _on_coset,
    "spectral.ingest": _on_ingest,
    "storage.save_model": _on_save,
}


class Tracer:
    """Collects spans and counts while installed.

    The operation id and the parent stack are set by the thread that runs
    the CLI; pool threads started by ``run_chunked`` inherit the
    ``run_chunked`` span as parent through the wrapped worker.
    """

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.counts = defaultdict(int)
        self.op = 0
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self._sizes = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        sid = next(self._ids)
        rec = [sid, name, 0.0, 0.0, parent if parent is not None else (stack[-1] if stack else 0), self.op]
        stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def _count(self, hook, args, result):
        with self._lock:
            hook(self, args, result)

    def _wrapper(self, name: str, original):
        hook = HOOKS.get(name)

        if name == "parallel.run_chunked":

            def wrapper(worker, total, threads):
                with self.span(name) as rec:
                    parent = rec[0]

                    def traced_worker(lo, hi):
                        with self.span("parallel.chunk", parent=parent):
                            worker(lo, hi)
                        with self._lock:
                            self.counts["parallel.chunks"] += 1

                    result = original(traced_worker, total, threads)
                with self._lock:
                    self.counts["parallel.thread_wall_s"] += (rec[3] - rec[2]) * int(threads)
                return result

            return wrapper

        clock, spans, ids = time.perf_counter, self.spans, self._ids

        def wrapper(*args, **kwargs):
            # span() inlined: this runs once per coset lookup and per
            # eigensolve, so its cost shows in trace.overhead_s
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, name, start, end, parent, self.op])
            if hook is not None:
                self._count(hook, args, result)
            return result

        return wrapper

    def ingest_size(self, manifest) -> int:
        """Bytes of a dataset's manifest plus payload, read once per path."""
        path = Path(manifest)
        if path not in self._sizes:
            payload = path.parent / json.loads(path.read_text())["payload_path"]
            self._sizes[path] = path.stat().st_size + payload.stat().st_size
        return self._sizes[path]

    def install(self) -> "Tracer":
        for module_name, attr, name in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def absent_layers(self) -> list[str]:
        """Layers none of whose wrap points exist any more."""
        present = {name.split(".")[0] for m, a, name in WRAP_POINTS if f"{m}.{a}" not in self.absent}
        return sorted({name.split(".")[0] for _, _, name in WRAP_POINTS} - present)

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def span_times(spans) -> dict:
    """Inclusive and self seconds per span name.

    Self time is the span's duration minus the union of its children's
    intervals, where children of thread-pool spans count as children of
    the span that started the pool.  With two pool threads the children
    overlap, so self time is a wall-clock share, not CPU time.
    """
    by_id = {rec[0]: rec for rec in spans}

    def owner(parent):
        while parent in by_id and by_id[parent][1] in TRANSPARENT:
            parent = by_id[parent][4]
        return parent

    children = defaultdict(list)
    for rec in spans:
        if rec[1] not in TRANSPARENT:
            children[owner(rec[4])].append((rec[2], rec[3]))
    total = defaultdict(float)
    self_time = defaultdict(float)
    for rec in spans:
        duration = rec[3] - rec[2]
        total[rec[1]] += duration
        if rec[1] not in TRANSPARENT:
            self_time[rec[1]] += duration - _union(children.get(rec[0], ()))
    return {"total": total, "self": self_time}


def layer_metrics(spans, counts: dict) -> dict:
    """Per-layer numbers of one traced pass."""
    times = span_times(spans)
    out = {}
    for metric, (how, names) in TIMES.items():
        out[metric] = sum(times[how].get(n, 0.0) for n in names)
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    calls = counts.get("hermitian.eig_calls", 0)
    out["hermitian.order_mean"] = counts.get("hermitian.order_sum", 0) / calls if calls else 0.0
    base = counts.get("parallel.thread_wall_s", 0.0)
    out["parallel.thread_wall_s"] = base
    out["parallel.efficiency"] = out["parallel.busy_s"] / base if base else 0.0
    return out


# matrices timed per order by the kernel micro-measure
MICRO_MATRICES = {4: 40, 8: 20, 16: 6, 32: 3}


def kernel_ms_per_matrix(seed: int) -> dict:
    """Milliseconds per matrix of the active Jacobi kernel, per order.

    The matrices are the mix of acceptance criterion 1: (a + a^H) / 2 with
    a complex standard normal, solved to tol 1e-13 * ||h||_F.  Returns an
    empty dict when the ``sisfit.kernels`` layer no longer exists.
    """
    import numpy as np

    try:
        from sisfit.kernels import jacobi_cycle
    except ImportError:
        return {}
    rng = np.random.default_rng([7, seed])
    out = {}
    for n, count in MICRO_MATRICES.items():
        mats = []
        for _ in range(count):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            mats.append((a + a.conj().T) / 2.0)
        elapsed = 0.0
        for h in mats:
            are, aim = np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag)
            vre, vim = np.eye(n), np.zeros((n, n))
            thr = 1e-13 * float(np.linalg.norm(h))
            t0 = time.perf_counter()
            jacobi_cycle(are, aim, vre, vim, thr, 64)
            elapsed += time.perf_counter() - t0
        out[f"kernels.ms_per_matrix.o{n}"] = 1e3 * elapsed / len(mats)
    return out
