import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wgchan
from wgchan import cli, montecarlo
from wgchan.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    assert lines[0].startswith("# wgchan-schema v1")
    header, *rows = csv.reader(lines[1:])
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text):
    """Parse a --format json document, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# wg


def test_wg_values(capsys):
    code, out, _ = run_cli(capsys, ["wg", "--n", "4", "--p", "2"])
    assert code == 0
    rows = {r["cycle_type"]: r for r in csv_rows(out)}
    assert rows["1+1"]["wg"] == "1/15"
    assert rows["2"]["wg"] == "-1/60"


def test_wg_csv_bytes(capsys):
    code, out, _ = run_cli(capsys, ["wg", "--n", "4", "--p", "2"])
    assert code == 0
    assert out == (
        "# wgchan-schema v1\n"
        "cycle_type,wg,wg_float\n"
        "1+1,1/15,0.066666666666666666\n"
        "2,-1/60,-0.016666666666666666\n"
    )


def test_unwritable_out_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "missing" / "wg.csv"
    code, out, err = run_cli(capsys, ["wg", "--n", "4", "--p", "2", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert "cannot open --out" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-moments", "--n", "3", "--k", "3", "--m", "4"],
        ["exact-moments", "--n", "2", "--k", "2", "--p-max", "4"],
        ["exact-moments", "--n", "3", "--k", "3", "--m", "9", "--pinched"],
        ["entropy", "--d", "0", "--c", "5/2", "--n-list", "8", "--trials", "1", "--seed", "1"],
        ["compare", "--n", "3", "--k", "3", "--m", "9", "--pinched", "--p-max", "2", "--trials", "4", "--seed", "3"],
    ],
)
def test_rejected_run_leaves_no_file(tmp_path, capsys, argv):
    target = tmp_path / "out.csv"
    code, _, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 2
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--n", "3", "--k", "3", "--p-max", "5", "--trials", "10", "--seed", "1"],
        ["compare", "--n", "3", "--k", "3", "--p-max", "0", "--trials", "10", "--seed", "1"],
        ["compare", "--n", "3", "--k", "3", "--trials", "0", "--seed", "1"],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--drop-largest", "3"],
        ["simulate", "--n", "8", "--trials", "0", "--seed", "1"],
        ["entropy", "--d", "0", "--c", "2", "--n-list", "8", "--trials", "0", "--seed", "1"],
        ["minimize", "--p", "0", "--d", "1"],
        ["minimize", "--p", "-1", "--d", "1"],
        *[
            ["compare", "--n", "3", "--k", "3", "--trials", "10", "--seed", "1", "--strict", option, value]
            for option in ("--z-threshold", "--rescale")
            for value in ("-1", "0", "nan", "inf")
        ],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--scale", "inf"],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--scale", "nan"],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--threads", "0"],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--threads", "-2"],
        ["entropy", "--d", "1", "--c", "1", "--n-list", "4", "--trials", "2", "--seed", "1", "--threads", "0"],
        ["exact-moments", "--n", "3", "--k", "3", "--m", "0"],
        ["exact-moments", "--n", "3", "--k", "3", "--m", "-3"],
        ["minimize", "--p", "2", "--d", "1/0"],
        *[
            [*command, option, "1/0"]
            for command in (
                ["simulate", "--n", "8", "--trials", "2", "--seed", "1"],
                ["entropy", "--n-list", "8", "--trials", "2", "--seed", "1", "--d", "1", "--c", "1"],
            )
            for option in ("--c", "--d", "--t")
        ],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--c", "1e400"],
        ["simulate", "--n", "8", "--trials", "2", "--seed", "1", "--d", "0", "--c", "1e400", "--t", "1/2"],
        ["entropy", "--n-list", "8", "--trials", "2", "--seed", "1", "--d", "1000", "--c", "1"],
        # one output's rank factor beyond the memory guard
        ["simulate", "--n", "8", "--d", "10", "--trials", "1", "--seed", "1"],
        ["entropy", "--n-list", "8", "--d", "10", "--c", "1", "--trials", "1", "--seed", "1"],
        ["compare", "--n", "80", "--k", "80", "--trials", "2", "--seed", "1"],
        # n < 1, which with a fractional d would otherwise reach a complex power
        ["simulate", "--n", "-3", "--d", "1/2", "--trials", "1", "--seed", "1"],
        ["entropy", "--d", "1/2", "--c", "1", "--n-list", "-4", "--trials", "1", "--seed", "1"],
        # dropping every eigenvalue of a min(n, k)^2 = 1 spectrum from the bulk
        ["simulate", "--n", "5", "--c", "1", "--d", "0", "--drop-largest", "1", "--trials", "2", "--seed", "1"],
        ["simulate", "--n", "1", "--c", "3", "--d", "0", "--drop-largest", "2", "--trials", "2", "--seed", "1"],
        # a seed numpy's streams cannot take
        ["simulate", "--n", "8", "--trials", "2", "--seed", "-1"],
        ["compare", "--n", "3", "--k", "3", "--trials", "2", "--seed", "-1"],
        ["entropy", "--d", "1", "--c", "1", "--n-list", "4", "--trials", "2", "--seed", "-1"],
    ],
)
def test_invalid_numbers_rejected_before_output(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, argv + ["--out", str(target)])
    assert (code, out) == (2, "")
    assert not target.exists()


def test_cli_runs_without_scipy():
    # scipy is loaded only for a complex rank-k update wider than 512; small
    # commands of every kind must start and finish without importing it
    script = """
import sys
import wgchan, wgchan.cli
for argv in (
    ["compare", "--n", "3", "--k", "3", "--p-max", "3", "--trials", "20", "--seed", "1"],
    ["compare", "--flavor", "independent", "--n", "3", "--k", "2", "--trials", "20", "--seed", "1"],
    ["simulate", "--n", "8", "--trials", "2", "--seed", "1"],
    ["simulate", "--flavor", "independent", "--n", "6", "--trials", "2", "--seed", "1"],
    ["entropy", "--d", "1", "--c", "1", "--n-list", "4", "--trials", "2", "--seed", "1"],
):
    assert wgchan.cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = str(Path(wgchan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_wg_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, ["wg", "--n", "1", "--p", "2"])
    assert code == 2
    assert "n < p" in err


def test_wg_json(capsys):
    code, out, _ = run_cli(capsys, ["wg", "--n", "3", "--p", "3", "--format", "json"])
    assert code == 0
    doc = strict_json(out)
    assert doc["schema_version"] == "wgchan-schema v1"
    assert doc["config"]["command"] == "wg"
    types = {row["cycle_type"] for row in doc["rows"]}
    assert types == {"1+1+1", "2+1", "3"}


# ---------------------------------------------------------------------------
# exact moments


def test_exact_moments_p1_normalization(capsys):
    code, out, _ = run_cli(capsys, ["exact-moments", "--n", "3", "--k", "3", "--p-max", "2"])
    assert code == 0
    rows = csv_rows(out)
    assert rows[0]["exact"] == "1"
    assert Fraction(rows[1]["exact"]) == Fraction(1097, 3465)


def test_exact_moments_pinched(capsys):
    code, out, _ = run_cli(capsys, ["exact-moments", "--n", "3", "--k", "3", "--p-max", "1", "--pinched"])
    assert code == 0
    rows = csv_rows(out)
    assert Fraction(rows[0]["exact"]) == 1 - Fraction(9 + 27 - 3 - 1, 81 - 1)


def test_exact_moments_rectangular_input(capsys):
    # m != n: generalized model, trace normalization still exact
    code, out, _ = run_cli(capsys, ["exact-moments", "--n", "3", "--k", "2", "--m", "6", "--p-max", "1"])
    assert code == 0
    assert csv_rows(out)[0]["exact"] == "1"


def test_exact_moments_bad_m(capsys):
    code, _, err = run_cli(capsys, ["exact-moments", "--n", "3", "--k", "3", "--m", "4"])
    assert code == 2
    assert "divide" in err


# ---------------------------------------------------------------------------
# minimize


def test_minimize_check_tables_ok(capsys):
    code, out, _ = run_cli(capsys, ["minimize", "--p", "2", "--d", "1", "--check-tables"])
    assert code == 0
    rows = csv_rows(out)
    problems = {r["problem"] for r in rows}
    assert {"S1", "S2", "S"} <= problems


def test_minimize_interface_case(capsys):
    code, out, _ = run_cli(capsys, ["minimize", "--p", "3", "--d", "4/3", "--check-tables"])
    assert code == 0
    s1 = next(r for r in csv_rows(out) if r["problem"] == "S1")
    assert Fraction(s1["minimum"]) == 4
    assert s1["n_minimizers"] == "2"
    assert "id" in s1["minimizers"] and "delta" in s1["minimizers"]


def test_minimize_csv_rows_have_five_fields(capsys):
    # unlabelled minimizers render as "(1, 2, 3, 0)", so the field is quoted
    code, out, _ = run_cli(capsys, ["minimize", "--p", "2", "--d", "0"])
    assert code == 0
    lines = out.splitlines()
    table = list(csv.reader(lines[1:]))
    assert table[0] == ["problem", "d", "minimum", "n_minimizers", "minimizers"]
    assert len(table) > 1 and all(len(row) == 5 for row in table)
    assert any("(1, 2, 3, 0)" in row[4] for row in table)


def test_minimize_cap(capsys):
    code, _, err = run_cli(capsys, ["minimize", "--p", "5", "--d", "1"])
    assert code == 2
    assert "cap" in err


# ---------------------------------------------------------------------------
# compare


def test_compare_conjugate_strict_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--n", "2", "--k", "2", "--p-max", "2", "--trials", "3000", "--seed", "5", "--strict"],
    )
    assert code == 0
    rows = csv_rows(out)
    assert [r["p"] for r in rows] == ["1", "2"]
    assert Fraction(rows[1]["exact"]) == Fraction(4, 7)
    assert abs(float(rows[1]["z_exact"])) <= 4


def test_compare_strict_fails_on_corrupted_scale(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "compare", "--n", "2", "--k", "2", "--p-max", "2", "--trials", "2000",
            "--seed", "5", "--strict", "--rescale", "1.5",
        ],
    )
    assert code == 3
    assert "strict" in err


def test_compare_strict_rejects_single_trial(capsys):
    code, out, err = run_cli(
        capsys,
        ["compare", "--n", "3", "--k", "3", "--p-max", "2", "--trials", "1", "--seed", "7",
         "--strict", "--rescale", "100"],
    )
    assert code == 2
    assert out == ""
    assert "2 trials" in err


def test_compare_strict_fails_on_nan_gate(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_z", lambda mean, stderr, reference: float("nan"))
    code, _, err = run_cli(
        capsys,
        ["compare", "--n", "2", "--k", "2", "--p-max", "2", "--trials", "50", "--seed", "5", "--strict"],
    )
    assert code == 3
    assert "nan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--flavor", "independent", "--n", "6", "--k", "3", "--p-max", "3",
         "--trials", "2000", "--seed", "1", "--strict"],
        # nk = 4 < 2p at p = 3: no exact value for the last order
        ["compare", "--n", "2", "--k", "2", "--p-max", "3", "--trials", "2000", "--seed", "1", "--strict"],
    ],
)
def test_compare_strict_refuses_orders_without_exact_value(capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("sampled before refusing --strict")

    monkeypatch.setattr(montecarlo, "moment_ensemble", never)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "exact" in err


def test_compare_single_trial_json_is_strict(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--n", "3", "--k", "3", "--p-max", "2", "--trials", "1", "--seed", "7",
         "--format", "json"],
    )
    assert code == 0
    rows = strict_json(out)["rows"]
    assert all(r["mc_stderr"] is None and r["z_exact"] is None for r in rows)


def test_compare_failing_part_way_writes_no_json_document(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("ensemble failed")

    monkeypatch.setattr(montecarlo, "moment_ensemble", fail)
    code, out, err = run_cli(
        capsys,
        ["compare", "--n", "2", "--k", "2", "--p-max", "2", "--trials", "50", "--seed", "5",
         "--format", "json"],
    )
    assert code == 2
    assert "ensemble failed" in err
    with pytest.raises(ValueError):
        strict_json(out)


def test_compare_independent_has_no_exact_column(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--flavor", "independent", "--n", "8", "--k", "8", "--p-max", "2",
         "--trials", "400", "--seed", "6"],
    )
    assert code == 0
    rows = csv_rows(out)
    assert all(r["exact"] == "" for r in rows)
    assert all(r["z_exact"] == "" for r in rows)
    assert float(rows[0]["theory"]) == pytest.approx(1.0)


def test_compare_deterministic_output(capsys):
    argv = ["compare", "--n", "2", "--k", "2", "--p-max", "2", "--trials", "500", "--seed", "9"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_compare_json_document(capsys):
    code, out, _ = run_cli(
        capsys,
        ["compare", "--n", "2", "--k", "2", "--p-max", "1", "--trials", "200",
         "--seed", "4", "--format", "json"],
    )
    assert code == 0
    doc = strict_json(out)
    assert doc["config"]["trials"] == 200
    assert set(doc["rows"][0]) == {"p", "exact", "mc_mean", "mc_stderr", "theory", "z_exact", "z_theory"}


# ---------------------------------------------------------------------------
# simulate and entropy


def test_simulate_rows_and_determinism(capsys):
    argv = ["simulate", "--n", "8", "--c", "1/2", "--d", "1", "--trials", "4", "--seed", "2"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    rows = csv_rows(out1)
    trials = [r for r in rows if r["row"] == "trial"]
    assert len(trials) == 4
    assert rows[-2]["row"] == "mean" and rows[-1]["row"] == "stderr"
    assert all(float(r["lambda1"]) > 0 for r in trials)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_simulate_fixed_ancilla_with_t(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--n", "16", "--c", "2", "--d", "0", "--t", "1/2", "--trials", "3", "--seed", "8"],
    )
    assert code == 0
    rows = csv_rows(out)
    mean = next(r for r in rows if r["row"] == "mean")
    assert float(mean["lambda1"]) == pytest.approx(0.625, rel=0.2)


def test_entropy_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["entropy", "--d", "1", "--c", "1/2", "--n-list", "8,12", "--trials", "4", "--seed", "3"],
    )
    assert code == 0
    rows = csv_rows(out)
    assert [r["n"] for r in rows] == ["8", "12"]
    for r in rows:
        assert float(r["h_mean"]) > 0
        assert float(r["naive_bound"]) > 0
        assert r["predicted_defect"] == "0.125"
        # empirical entropy sits below the hard bound
        assert float(r["h_mean"]) < float(r["naive_bound"])


def test_entropy_single_trial_json_is_strict(capsys):
    code, out, _ = run_cli(
        capsys,
        ["entropy", "--d", "1", "--c", "1/2", "--n-list", "8", "--trials", "1", "--seed", "3",
         "--format", "json"],
    )
    assert code == 0
    row = strict_json(out)["rows"][0]
    assert row["h_stderr"] is None and row["defect_stderr"] is None
    assert row["h_mean"] > 0


def test_entropy_d0_rejects_fractional_c(capsys):
    code, _, err = run_cli(
        capsys,
        ["entropy", "--d", "0", "--c", "5/2", "--n-list", "8", "--trials", "1", "--seed", "1"],
    )
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize(
    "argv, columns",
    [
        (["simulate", "--n", "5", "--c", "1", "--d", "0", "--trials", "2", "--seed", "1"],
         ["lambda1", "bulk_mean", "bulk_std", "bulk_m1", "bulk_m2", "bulk_m3", "bulk_m4"]),
        (["entropy", "--d", "0", "--c", "1", "--n-list", "4", "--trials", "2", "--seed", "1"], ["h_mean"]),
    ],
    ids=["simulate", "entropy"],
)
def test_single_eigenvalue_keeps_its_bulk(capsys, argv, columns):
    # k = 1 leaves one eigenvalue, so the conjugate default drops none
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    for r in csv_rows(out):
        assert all(math.isfinite(float(r[name])) for name in columns), r
        # rounding puts lambda1 at 1 + 2^-52 on one trial; no entropy reads below 0
        entropies = [r[name] for name in ("entropy", "h_mean", "prediction") if name in r]
        assert entropies and not any(value.startswith("-") for value in entropies), r


def test_seed_required_for_stochastic_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "8", "--trials", "2"])
    assert exc.value.code == 2


def test_float_rendering_roundtrips(capsys):
    _, out, _ = run_cli(
        capsys,
        ["compare", "--n", "2", "--k", "2", "--p-max", "2", "--trials", "300", "--seed", "11"],
    )
    rows = csv_rows(out)
    val = rows[1]["mc_mean"]
    assert float(val) == float(repr(float(val)))  # 17 significant digits survive


def test_out_file(tmp_path, capsys):
    target = tmp_path / "wg.csv"
    code, out, _ = run_cli(capsys, ["wg", "--n", "3", "--p", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    rows = csv_rows(target.read_text())
    assert rows[0]["cycle_type"] == "1+1"


def test_simulate_threads_do_not_change_output(capsys):
    base = ["simulate", "--n", "8", "--c", "1", "--d", "1", "--trials", "6", "--seed", "14"]
    _, out1, _ = run_cli(capsys, base)
    _, out2, _ = run_cli(capsys, base + ["--threads", "2"])
    assert out1 == out2


# ---------------------------------------------------------------------------
# golden outputs: exact commands only (Fractions and their correctly rounded
# floats), so the bytes do not depend on BLAS or the host

GOLDEN = Path(__file__).parent / "golden"
_MIN_D = ["--d", "0", "--d", "1/2", "--d", "1", "--d", "4/3", "--d", "3/2", "--d", "2", "--d", "3"]
GOLDEN_CASES = [
    *[(f"wg_n9_p{p}", ["wg", "--n", "9", "--p", str(p)], 0) for p in range(1, 8)],
    ("wg_n9_p7_json", ["wg", "--n", "9", "--p", "7", "--format", "json"], 0),
    ("wg_n10_p8_cap", ["wg", "--n", "10", "--p", "8"], 2),
    *[
        (f"exact_{name}_{fmt}", ["exact-moments", *argv, "--p-max", "4", "--format", fmt], 0)
        for name, argv in (
            ("conj_n3_k3", ["--n", "3", "--k", "3"]),
            ("conj_n2_k4_m4", ["--n", "2", "--k", "4", "--m", "4"]),
            ("conj_n4_k2_m1", ["--n", "4", "--k", "2", "--m", "1"]),
            ("pinched_n3_k3", ["--n", "3", "--k", "3", "--pinched"]),
            ("pinched_n4_k2", ["--n", "4", "--k", "2", "--pinched"]),
        )
        for fmt in ("csv", "json")
    ],
    ("exact_conj_n3_k2_rejected", ["exact-moments", "--n", "3", "--k", "2", "--p-max", "4"], 2),
    ("minimize_p2", ["minimize", "--p", "2", *_MIN_D, "--check-tables"], 0),
    ("minimize_p3", ["minimize", "--p", "3", *_MIN_D, "--check-tables"], 0),
]


@pytest.mark.parametrize("name, argv, want_code", GOLDEN_CASES, ids=[case[0] for case in GOLDEN_CASES])
def test_cli_golden_outputs(capsys, name, argv, want_code):
    code, out, _ = run_cli(capsys, argv)
    assert code == want_code
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


# seeded Monte Carlo goldens: the floats depend on BLAS, so each runs in a
# fresh process with one BLAS thread; a change that claims to move no value
# must leave these bytes as they are.  They were written with OpenBLAS
# 0.3.31 (numpy 2.4) on x86-64; another BLAS build or CPU kernel may round
# differently and needs its own files
_CMP = ["compare", "--trials", "3000", "--seed", "11"]
COMPARE_GOLDEN_CASES = [
    ("compare_conj_n3_k3_json", [*_CMP, "--p-max", "3", "--n", "3", "--k", "3", "--format", "json"]),
    ("compare_conj_n4_k4_p4_csv", [*_CMP, "--n", "4", "--k", "4", "--p-max", "4", "--strict"]),
    ("compare_pinched_n3_k3_csv", [*_CMP, "--p-max", "3", "--n", "3", "--k", "3", "--pinched"]),
    ("compare_conj_n2_k6_m3_csv", [*_CMP, "--p-max", "3", "--n", "2", "--k", "6", "--m", "3"]),
    ("compare_conj_n4_k3_m6_json", [*_CMP, "--p-max", "3", "--n", "4", "--k", "3", "--m", "6", "--format", "json"]),
    ("compare_indep_n3_k3_csv", [*_CMP, "--p-max", "3", "--flavor", "independent", "--n", "3", "--k", "3"]),
]
_D0 = ["--c", "2", "--d", "0", "--t", "1/2", "--trials", "3", "--seed", "8", "--format", "json"]
ENSEMBLE_GOLDEN_CASES = [
    ("simulate_full_n8_csv", ["simulate", "--n", "8", "--c", "1/2", "--trials", "4", "--seed", "2"]),
    # min(n, k)^2 = 3136 > FULL_SPECTRUM_CAP: trace powers and Lanczos, no entropy column
    ("simulate_trace_n56_csv", ["simulate", "--n", "56", "--trials", "3", "--seed", "5"]),
    ("simulate_indep_n6_csv", ["simulate", "--flavor", "independent", "--n", "6", "--trials", "3", "--seed", "4"]),
    ("simulate_d0_t_json", ["simulate", "--n", "16", *_D0]),
    ("simulate_one_trial_csv", ["simulate", "--n", "8", "--trials", "1", "--seed", "6"]),
    ("entropy_full_csv", ["entropy", "--d", "1", "--c", "1/2", "--n-list", "8,12", "--trials", "4", "--seed", "3"]),
    ("entropy_d0_t_json", ["entropy", "--n-list", "8,16", *_D0]),
    ("entropy_one_trial_csv", ["entropy", "--d", "1", "--c", "1", "--n-list", "6", "--trials", "1", "--seed", "6"]),
]


def _assert_seeded_golden(name, argv):
    src = str(Path(wgchan.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    done = subprocess.run([sys.executable, "-m", "wgchan.cli", *argv], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name, argv", COMPARE_GOLDEN_CASES, ids=[case[0] for case in COMPARE_GOLDEN_CASES])
def test_compare_golden_outputs(name, argv):
    _assert_seeded_golden(name, argv)


@pytest.mark.parametrize("name, argv", ENSEMBLE_GOLDEN_CASES, ids=[case[0] for case in ENSEMBLE_GOLDEN_CASES])
def test_ensemble_golden_outputs(name, argv):
    _assert_seeded_golden(name, argv)
