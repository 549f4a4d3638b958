"""cli_session: a seeded sequence of fresh ``python -m wgchan.cli`` processes,
run one at a time (a closed loop with one client).

The same layers run differently here: ``montecarlo`` through
``moment_ensemble`` on many tiny batched matrices instead of a few huge
ones, and the exact layers cold in every process, paying the group and
census builds each time.  Interpreter start-up and output writing count
too.  A change that moves work into set-up or caches, or that speeds the
large path while slowing the batched one, shows here.

A pass runs one command from every slot in ``SLOTS``.  The variants of a
slot cost about the same (mirror-image dimensions, d values needing the
same searches), so the seed, which chooses each slot's variant, the Monte
Carlo seeds and the order, barely moves the cost of a pass.  Every command's exit
code is checked against the README's meaning (0 success, 2 invalid input,
3 strict-mode failure), every ``--format json`` document is parsed with
NaN and Infinity rejected, CSV rows must match their header, and answers
are checked against the frozen pool or against facts that hold for every
density matrix.  Monte Carlo means are gated against exact values at the
CLI's own threshold |z| <= 4; no asymptotic theory column is gated.

Traced, each command runs through ``cli_traced.py``, which wraps the
layers' public functions inside the child process and reports its spans on
stderr.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from cli_traced import SPANS_MARK
from common import BENCH_DIR, ROOT, Op, PassResult, Spans, check_spectrum, checkout_env

#: Whole passes an untraced run makes at least.
MIN_PASSES = 1
#: Fresh-process set-ups whose median is setup_s.
SETUP_SAMPLES = 5
IN_PROCESS = False
SETUP_COMMAND = [sys.executable, "-m", "wgchan.cli", "--help"]
SCHEMA = "wgchan-schema v1"
Z_THRESHOLD = 4.0
COMMAND_TIMEOUT_S = 150
INVALID = [
    ["wg", "--n", "2", "--p", "5"],
    ["exact-moments", "--n", "3", "--k", "3", "--m", "2"],
    ["minimize", "--p", "5", "--d", "1"],
    ["compare", "--n", "3", "--k", "3", "--m", "2", "--trials", "100", "--seed", "1"],
]


class Context:
    def __init__(self, pool: dict):
        self.env = checkout_env()
        self.conj = {(e["n"], e["k"], e["m"]): _fractions(e["values"]) for e in pool["conjugate"]}
        self.pinched = {(e["n"], e["k"]): _fractions(e["values"]) for e in pool["pinched"]}
        self.wg = {(e["n"], e["p"]): e["values"] for e in pool["wg"]}
        self.minimize = {(e["problem"], e["p"], e["d"]): e for e in pool["minimize"]}
        self.startup_s: list[float] = []


def _fractions(values: dict) -> dict[int, Fraction]:
    return {int(p): Fraction(v) for p, v in values.items()}


def setup(pool: dict, spans: Spans | None) -> Context:
    return Context(pool)


class OutputError(Exception):
    pass


def _reject_constant(name):
    raise OutputError(f"non-strict JSON constant {name}")


def _finite(value) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise OutputError(f"non-finite value {value!r}")
    return out


def _rows(stdout: str, fmt: str, columns: list[str]) -> list[dict]:
    if fmt == "json":
        doc = json.loads(stdout, parse_constant=_reject_constant)
        if doc.get("schema_version") != SCHEMA:
            raise OutputError(f"schema_version {doc.get('schema_version')!r}")
        rows = doc["rows"]
    else:
        lines = stdout.splitlines()
        if not lines or lines[0] != f"# {SCHEMA}":
            raise OutputError("missing schema comment")
        table = list(csv.reader(lines[1:]))
        header, body = table[0], table[1:]
        if any(len(row) != len(header) for row in body):
            raise OutputError("a CSV row does not match its header")
        rows = [{col: (value if value != "" else None) for col, value in zip(header, row)} for row in body]
    for row in rows:
        if list(row) != columns:
            raise OutputError(f"columns {list(row)} instead of {columns}")
        for value in row.values():
            if isinstance(value, str) and value.lower().lstrip("+-") in ("nan", "inf", "infinity"):
                raise OutputError(f"non-finite value {value!r}")
    return rows


# ---------------------------------------------------------------------------
# checks of each command's rows


def _check_compare(rows, exact: dict[int, Fraction] | None, pinched: bool, rank: int):
    if [int(r["p"]) for r in rows] != [1, 2, 3]:
        return "rows are not p = 1, 2, 3"
    means = {}
    for row in rows:
        p = int(row["p"])
        mean, stderr = _finite(row["mc_mean"]), _finite(row["mc_stderr"])
        means[p] = mean
        if exact is None:
            if row["exact"] is not None:
                return f"p={p}: an exact column where none exists"
        elif Fraction(str(row["exact"])) != exact[p]:
            return f"p={p}: exact {row['exact']} differs from the frozen {exact[p]}"
        if p == 1 and not pinched:
            if abs(mean - 1.0) > 1e-10:
                return f"mean tr Z = {mean!r}, not 1 within 1e-10"
            continue
        if not stderr > 0:
            return f"p={p}: stderr {stderr!r} is not positive"
        if exact is not None and abs(mean - float(exact[p])) / stderr > Z_THRESHOLD:
            return f"p={p}: |z| = {abs(mean - float(exact[p])) / stderr:.3g} against the exact value"
    if exact is None:
        tol = 1e-12
        if not (means[2] >= 1.0 / rank - tol and means[2] ** 2 - tol <= means[3] <= means[2] + tol):
            return f"means violate 1/rank <= E tr Z^2, (E tr Z^2)^2 <= E tr Z^3 <= E tr Z^2: {means}"
    return None


def _compare(ctx: Context, rng: random.Random, flavor: str, points, trials: int, strict: bool, pinched=False):
    n, k, m = rng.choice(points)
    argv = ["compare", "--flavor", flavor, "--n", str(n), "--k", str(k), "--m", str(m), "--p-max", "3",
            "--trials", str(trials), "--seed", str(rng.randrange(1 << 30)), "--format", "json"]
    if pinched:
        argv.append("--pinched")
    if strict:
        argv.append("--strict")
    if flavor == "independent":
        exact = None
    else:
        exact = ctx.pinched[(n, k)] if pinched else ctx.conj[(n, k, m)]
    rank = min(n, k) ** 2
    check = lambda rows: _check_compare(rows, exact, pinched, rank)  # noqa: E731
    return argv, "json", ["p", "exact", "mc_mean", "mc_stderr", "theory", "z_exact", "z_theory"], check


def _exact_moments(ctx: Context, rng: random.Random, points: list[tuple[int, int]]):
    n, k = rng.choice(points)
    want = ctx.pinched[(n, k)]

    def check(rows):
        if [int(r["p"]) for r in rows] != [1, 2, 3]:
            return "rows are not p = 1, 2, 3"
        for row in rows:
            value = Fraction(str(row["exact"]))
            if value != want[int(row["p"])]:
                return f"p={row['p']}: {value} differs from the frozen {want[int(row['p'])]}"
            if _finite(row["exact_float"]) != float(value):
                return f"p={row['p']}: exact_float does not round-trip"
        return None

    argv = ["exact-moments", "--n", str(n), "--k", str(k), "--p-max", "3", "--pinched", "--format", "csv"]
    return argv, "csv", ["p", "exact", "exact_float"], check


def _minimize(ctx: Context, rng: random.Random, d_values: list[str]):
    d = rng.choice(d_values)
    dv = Fraction(d)
    problems = ["S2", "S1"] + (["S_pinched"] if 0 < dv < 1 or 1 < dv < 2 else []) + ["S"]

    def check(rows):
        if [r["problem"] for r in rows] != problems:
            return f"problems {[r['problem'] for r in rows]} instead of {problems}"
        for row in rows:
            want = ctx.minimize[(row["problem"], 3, d)]
            if Fraction(str(row["minimum"])) != Fraction(want["minimum"]) or int(row["n_minimizers"]) != want["n_minimizers"]:
                return f"{row['problem']}: minimum {row['minimum']} x{row['n_minimizers']} differs from the pool"
        return None

    argv = ["minimize", "--p", "3", "--d", d, "--check-tables", "--format", "json"]
    return argv, "json", ["problem", "d", "minimum", "n_minimizers", "minimizers"], check


def _wg(ctx: Context, rng: random.Random):
    n = rng.choice([8, 9])
    want = ctx.wg[(n, 7)]

    def check(rows):
        got = {row["cycle_type"]: row for row in rows}
        if set(got) != set(want):
            return "cycle types differ from the frozen table"
        for ct, row in got.items():
            if Fraction(str(row["wg"])) != Fraction(want[ct]):
                return f"Wg({ct}) = {row['wg']} differs from the frozen {want[ct]}"
            if _finite(row["wg_float"]) != float(Fraction(want[ct])):
                return f"Wg({ct}) float does not round-trip"
        return None

    return ["wg", "--n", str(n), "--p", "7", "--format", "csv"], "csv", ["cycle_type", "wg", "wg_float"], check


SIMULATE_COLUMNS = ["row", "trial", "lambda1", "entropy", "bulk_mean", "bulk_std", "bulk_m1", "bulk_m2", "bulk_m3", "bulk_m4"]


def _simulate(ctx: Context, rng: random.Random):
    n, trials = 24, 10
    k = 2  # fixed ancilla: d = 0, c = 2; t = 1/2 gives m = t n k = n
    rank, scale = min(n, k) ** 2, float(k * k)

    def check(rows):
        trial_rows = [r for r in rows if r["row"] == "trial"]
        if len(trial_rows) != trials or [r["row"] for r in rows[trials:]] != ["mean", "stderr"]:
            return "expected one row per trial, then mean and stderr"
        for row in trial_rows:
            lam1 = _finite(row["lambda1"])
            tr1 = _finite(row["bulk_m1"]) * (rank - 1) / scale + lam1
            tr2 = _finite(row["bulk_m2"]) * (rank - 1) / scale**2 + lam1 * lam1
            error = check_spectrum(rank, lam1, tr1, tr2, _finite(row["entropy"]))
            if error:
                return f"trial {row['trial']}: {error}"
        for col in SIMULATE_COLUMNS[2:]:
            mean = sum(_finite(r[col]) for r in trial_rows) / trials
            if abs(_finite(rows[trials][col]) - mean) > 1e-12 * max(1.0, abs(mean)):
                return f"mean row of {col} is not the mean of the trials"
        return None

    argv = ["simulate", "--n", str(n), "--c", "2", "--d", "0", "--t", "1/2", "--trials", str(trials),
            "--seed", str(rng.randrange(1 << 30)), "--format", "json"]
    return argv, "json", SIMULATE_COLUMNS, check


ENTROPY_COLUMNS = ["n", "k", "m", "h_mean", "h_stderr", "prediction", "naive_bound", "defect_mean",
                   "defect_stderr", "predicted_defect"]


def _entropy(ctx: Context, rng: random.Random):
    c = rng.choice(["1/2", "2"])
    n_list = [8, 12]

    def check(rows):
        if [int(r["n"]) for r in rows] != n_list:
            return "one row per n expected"
        for row in rows:
            n, k = int(row["n"]), int(row["k"])
            if k != round(float(Fraction(c)) * n):
                return f"n={n}: ancilla k={k}"
            h = _finite(row["h_mean"])
            cap = 2 * math.log(min(k, n))
            if not -1e-12 <= h <= cap + 1e-12:
                return f"n={n}: entropy {h!r} outside [0, 2 log min(k, n)]"
            if not _finite(row["h_stderr"]) >= 0:
                return f"n={n}: negative stderr"
            if abs(_finite(row["defect_mean"]) - (cap - h)) > 1e-12:
                return f"n={n}: defect_mean is not 2 log min(k, n) - h_mean"
            bound = 2 * math.log(k) - math.log(k) / k + 1.0 / k
            if abs(_finite(row["naive_bound"]) - bound) > 1e-12:
                return f"n={n}: naive bound {row['naive_bound']} is not 2 log k - log k / k + 1/k"
        return None

    argv = ["entropy", "--d", "1", "--c", c, "--n-list", ",".join(map(str, n_list)), "--trials", "10",
            "--seed", str(rng.randrange(1 << 30)), "--format", "json"]
    return argv, "json", ENTROPY_COLUMNS, check


def _rejected(ctx: Context, rng: random.Random, choices: list[list[str]]):
    return rng.choice(choices), None, None, None


SLOTS = [
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(3, 3, 3)], 50_000, True)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(4, 4, 4)], 50_000, True)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(6, 6, 6)], 10_000, True)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(3, 3, 3)], 20_000, True, pinched=True)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(3, 4, 3), (4, 3, 4)], 20_000, True, pinched=True)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "independent", [(3, 3, 3)], 20_000, False)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "independent", [(4, 4, 4)], 20_000, False)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(4, 3, 6), (3, 4, 6)], 20_000, True)),
    ("compare", lambda ctx, rng: _compare(ctx, rng, "conjugate", [(2, 6, 3), (6, 2, 3)], 20_000, True)),
    ("exact_moments", lambda ctx, rng: _exact_moments(ctx, rng, [(2, 4), (4, 2)])),
    ("exact_moments", lambda ctx, rng: _exact_moments(ctx, rng, [(3, 4), (4, 3)])),
    ("minimize", lambda ctx, rng: _minimize(ctx, rng, ["1/2", "4/3", "3/2"])),
    ("minimize", lambda ctx, rng: _minimize(ctx, rng, ["0", "2"])),
    ("wg", _wg),
    ("simulate", _simulate),
    ("entropy", _entropy),
    ("rejected", lambda ctx, rng: _rejected(ctx, rng, INVALID[:2])),
    ("rejected", lambda ctx, rng: _rejected(ctx, rng, INVALID[2:])),
]


def _split_spans(stderr: str) -> tuple[str, dict | None]:
    head, mark, tail = stderr.rpartition(SPANS_MARK)
    if not mark:
        return stderr, None
    return head, json.loads(tail)


def _command_op(ctx: Context, kind: str, argv: list[str], fmt: str | None, columns, check_rows) -> Op:
    expect_code = 2 if kind == "rejected" else 0

    def run(spans):
        entry = ["-m", "wgchan.cli"] if spans is None else [str(BENCH_DIR / "cli_traced.py")]
        spawned = time.perf_counter()
        proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True, env=ctx.env,
                              cwd=ROOT, timeout=COMMAND_TIMEOUT_S)
        return proc, spawned

    def check(result, spans):
        proc, spawned = result
        stderr = proc.stderr
        if spans is not None:
            stderr, dumped = _split_spans(stderr)
            if dumped is None:
                return "the traced child reported no spans"
            spans.merge(dumped["spans"])
            ctx.startup_s.append(dumped["imported_at"] - spawned)
        if proc.returncode != expect_code:
            return f"exit code {proc.returncode}, expected {expect_code}: {stderr.strip()[-300:]}"
        if expect_code == 2:
            return None if stderr.startswith("error:") else "invalid input without an error: diagnostic"
        try:
            return check_rows(_rows(proc.stdout, fmt, columns))
        except (OutputError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"bad output: {type(exc).__name__}: {exc}"

    return Op(kind, "wgchan " + " ".join(argv), run, check)


def build_pass(ctx: Context, pool: dict, seed: int, pass_index: int) -> list[Op]:
    """The seed's commands; every pass of a run repeats the same list."""
    rng = random.Random(seed)
    ops = []
    for kind, make in SLOTS:
        ops.append(_command_op(ctx, kind, *make(ctx, rng)))
    rng.shuffle(ops)
    return ops


def layer_extras(ctx: Context, untraced: list[PassResult], traced: list[PassResult]) -> dict[str, float]:
    """Per command kind, the wall time of one untraced pass (spawn to exit),
    and the median time from spawn to ``wgchan.cli`` imported."""
    out = {f"cli.{kind}_s": 0.0 for kind, _ in SLOTS}
    for result in untraced:
        for kind, latency in zip(result.kinds, result.latencies):
            out[f"cli.{kind}_s"] += latency / len(untraced)
    out["cli.startup_s"] = statistics.median(ctx.startup_s) if ctx.startup_s else 0.0
    return out


def named_metrics(passes: list[PassResult]) -> dict[str, tuple[float, str, int]]:
    latencies = [t for result in passes for t in result.latencies]
    count = len(latencies)
    return {
        "commands_per_min": (60.0 * count / sum(latencies), "1/min", count),
        "command_p50_s": (statistics.median(latencies), "s", count),
    }
