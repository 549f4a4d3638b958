"""Pieces shared by the workloads: checkout paths, the span recorder, the
operation record and its pass loop, quantiles, provenance and peak memory."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POOL_PATH = BENCH_DIR / "pool.json"


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing source, bad pool)."""


def use_checkout_source():
    """Import ``wgchan`` from this checkout's ``src`` and nowhere else."""
    package = SRC / "wgchan"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no wgchan package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wgchan

    if Path(wgchan.__file__).resolve().parent != package.resolve():
        raise BenchError(f"wgchan imported from {wgchan.__file__}, not from {package}")
    return wgchan


def checkout_env() -> dict[str, str]:
    """Environment for child processes: this checkout's source only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_pool() -> dict:
    try:
        return json.loads(POOL_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read the answer pool {POOL_PATH}: {exc}") from exc


class Spans:
    """Spans kept in memory: self time (duration minus nested spans) and call
    count per name, plus plain counters."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._child_time: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            nested = self._child_time.pop()
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - nested
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._child_time:
                self._child_time[-1] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def add_time(self, name: str, seconds: float) -> None:
        self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "counts": self.counts}

    def merge(self, dumped: dict) -> None:
        for field in ("self_s", "calls", "counts"):
            mine = getattr(self, field)
            for name, value in dumped[field].items():
                mine[name] = mine.get(name, 0) + value


def span(spans: Spans | None, name: str):
    """A span on ``spans``, or nothing when the run is untraced."""
    return nullcontext() if spans is None else spans.span(name)


@dataclass
class Op:
    """One benchmark operation: ``run(spans)`` is timed, ``check(result,
    spans)`` is not and returns None or the reason the answer is wrong."""

    kind: str
    label: str
    run: Callable[[Spans | None], Any]
    check: Callable[[Any, Spans | None], str | None]


@dataclass
class PassResult:
    latencies: list[float]
    failures: list[str]
    kinds: list[str]
    wall_s: float


def run_pass(ops: list[Op], spans: Spans | None) -> PassResult:
    latencies, failures, kinds = [], [], []
    pass_start = time.perf_counter()
    for op in ops:
        start = time.perf_counter()
        error = None
        try:
            result = op.run(spans)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        kinds.append(op.kind)
        if error is None:
            try:
                error = op.check(result, spans)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.label}: {error}")
    return PassResult(latencies, failures, kinds, time.perf_counter() - pass_start)


def check_spectrum(rank: int, lam1: float, tr1: float, tr2: float, entropy: float | None) -> str | None:
    """Facts every density matrix of rank <= ``rank`` obeys: tr Z = 1,
    tr Z^2 <= lambda1 <= sqrt(tr Z^2) and 0 <= entropy <= log rank."""
    if not abs(tr1 - 1.0) <= 1e-10:
        return f"tr Z = {tr1!r}, not 1 within 1e-10"
    if not tr2 <= lam1 * (1 + 1e-9):
        return f"lambda1 = {lam1!r} below tr Z^2 = {tr2!r}"
    if not lam1 <= math.sqrt(tr2) * (1 + 1e-9):
        return f"lambda1 = {lam1!r} above sqrt(tr Z^2) = {math.sqrt(tr2)!r}"
    if entropy is not None and not -1e-12 <= entropy <= math.log(rank) + 1e-12:
        return f"entropy {entropy!r} outside [0, log {rank}]"
    return None


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def minimizer_digest(report) -> str:
    """Order-independent digest of an ``ExponentReport``'s minimizer set."""

    def key(entry):
        if isinstance(entry, tuple):
            return [key(e) for e in entry]
        return list(entry.images) if hasattr(entry, "images") else str(entry)

    keys = sorted(json.dumps(key(e)) for e in report.minimizers)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if its library can be queried."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = set()
    for line in maps.splitlines():
        fields = line.split()
        if len(fields) >= 6 and "openblas" in fields[-1].lower():
            paths.add(fields[-1])
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int, samples: dict) -> dict:
    import numpy
    import scipy
    import wgchan

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "wgchan": wgchan.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "library_threads": 1,
        "workload": workload,
        "seed": seed,
        "samples": samples,
    }
