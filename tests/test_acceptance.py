"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantities.  Tolerances are fixed here and match the
statements the library is contracted to reproduce.  Run with `pytest -v`;
add `-s` to see the lines for passing criteria too.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from wgchan import freeprob, moments, montecarlo, perm
from wgchan.montecarlo import ChannelSpec, product_output, run_ensemble, trial_rng
from wgchan.weingarten import IndexTuple, haar_moment, haar_moment_mc, wg_cycle_exact, wg_exact
from wgchan.perm import CycleType, Permutation


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_weingarten_convolution_exact():
    t0 = time.time()
    worst_cases = 0
    for p in range(1, 6):
        for n in (p, p + 1, 10):
            table = wg_exact(n, p)
            for sigma in itertools.permutations(range(p)):
                s = Permutation(sigma)
                total = Fraction(0)
                for tau in itertools.permutations(range(p)):
                    t = Permutation(tau)
                    total += Fraction(n) ** perm.compose(s, t.inverse()).num_cycles * table.of(t)
                expected = Fraction(1) if s.is_identity() else Fraction(0)
                if total != expected:
                    worst_cases += 1
    elapsed = time.time() - t0
    report(
        "1",
        worst_cases == 0 and elapsed < 10,
        f"convolution identity exact for p<=5, n in {{p, p+1, 10}}; "
        f"{worst_cases} violations, {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_02_single_cycle_closed_form():
    t0 = time.time()
    mismatches = []
    for d in range(1, 6):
        for n in (d, d + 1, 10):
            if wg_cycle_exact(n, d) != wg_exact(n, d)[CycleType((d,))]:
                mismatches.append((n, d))
    elapsed = time.time() - t0
    report(
        "2",
        not mismatches and elapsed < 1,
        f"single-cycle closed form equals the full table for d <= 5; "
        f"mismatches {mismatches}, {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_03_haar_moment_oracle():
    t0 = time.time()
    rng = np.random.default_rng(30303)
    zs = []
    for case in range(20):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, min(3, n) + 1))
        i = tuple(int(x) for x in rng.integers(1, n + 1, p))
        j = tuple(int(x) for x in rng.integers(1, n + 1, p))
        i_prime = tuple(int(x) for x in rng.permutation(list(i)))
        j_prime = tuple(int(x) for x in rng.permutation(list(j)))
        tup = IndexTuple(i, i_prime, j, j_prime)
        exact = float(haar_moment(n, tup, wg_exact(n, p)))
        est = haar_moment_mc(n, tup, trials=100_000, seed=40_000 + case)
        zs.append(est.z_against(exact))
    elapsed = time.time() - t0
    worst = max(zs)
    report(
        "3",
        worst <= 4 and elapsed < 120,
        f"20 randomized tuples (n<=5, p<=3, 1e5 trials): worst |z| = {worst:.2f} (<= 4), "
        f"{elapsed:.0f}s (< 2 min)",
    )


def test_criterion_04_exact_vs_mc_moments():
    t0 = time.time()
    spec = ChannelSpec(n=3, k=3, m=3, flavor="conjugate")
    ens = montecarlo.moment_ensemble(spec, 2, 100_000, seed=44, pinched=True)
    exact = float(moments.exact_moment_conjugate(2, 3, 3, 3))
    z_conj = abs(ens.mean(2) - exact) / ens.stderr(2)
    exact_pinched = float(moments.exact_moment_pinched(2, 3, 3))
    z_pinch = abs(ens.mean(2, pinched=True) - exact_pinched) / ens.stderr(2, pinched=True)
    elapsed = time.time() - t0
    report(
        "4",
        z_conj <= 4 and z_pinch <= 4 and elapsed < 300,
        f"(3,3,3) p=2, 1e5 trials: |z_conjugate| = {z_conj:.2f}, |z_pinched| = {z_pinch:.2f} "
        f"(<= 4), {elapsed:.0f}s (< 5 min)",
    )


def test_criterion_05_rescaled_second_moment():
    t0 = time.time()
    deviations = []
    for n in (6, 9, 12):
        value = moments.exact_moment_conjugate(2, n, n, n)
        deviations.append(abs(value * n * n - 3))
    elapsed = time.time() - t0
    decreasing = deviations[0] > deviations[1] > deviations[2]
    final = float(deviations[2])
    report(
        "5",
        decreasing and final < 0.25 and elapsed < 60,
        f"|n^2 E tr Z^2 - 3| = {[f'{float(d):.4f}' for d in deviations]} decreasing, "
        f"final {final:.4f} (< 0.25), {elapsed:.1f}s (< 1 min)",
    )


def test_criterion_06_minimizer_tables():
    t0 = time.time()
    grid = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(3)]
    bad = []
    for p in (2, 3):
        for d in grid:
            r2 = moments.minimize_S2(p, d)
            if (r2.minimum, r2.minimizer_set()) != moments.reference_S2(p, d):
                bad.append(("S2", p, d))
            r1 = moments.minimize_S1(p, d)
            if (r1.minimum, r1.minimizer_set()) != moments.reference_S1(p, d):
                bad.append(("S1", p, d))
    elapsed = time.time() - t0
    report(
        "6",
        not bad and elapsed < 120,
        f"exhaustive S1/S2 searches match every table row for p in {{2,3}}, 7 d values; "
        f"mismatches {bad}, {elapsed:.0f}s (< 2 min)",
    )


def test_criterion_07_fixed_ancilla_spectrum():
    t0 = time.time()
    spec = ChannelSpec(n=200, k=2, m=200, flavor="conjugate")
    tops = np.array([product_output(spec, trial_rng(707, t)).eigenvalues()[:4] for t in range(50)])
    means = tops.mean(axis=0)
    elapsed = time.time() - t0
    lam1_ok = abs(means[0] / 0.625 - 1) < 0.05
    bulk_ok = all(abs(means[i] / 0.125 - 1) < 0.10 for i in (1, 2, 3))
    report(
        "7",
        lam1_ok and bulk_ok and elapsed < 120,
        f"n=200, k=2, t=1/2, 50 trials: mean lambda1 = {means[0]:.4f} (0.625 +- 5%), "
        f"mean lower = {np.round(means[1:], 4).tolist()} (0.125 +- 10%), {elapsed:.0f}s (< 2 min)",
    )


@pytest.mark.slow
def test_criterion_08_linear_regime_bulk_law():
    t0 = time.time()
    spec = ChannelSpec(n=64, k=64, m=64, flavor="conjugate")
    rep = run_ensemble(spec, 25, seed=888)
    targets = [1.0, 2.0, 5.0]
    ratios = [rep.mean(f"bulk_m{p}") / targets[p - 1] for p in (1, 2, 3)]
    lam_scaled = rep.mean("lambda1") * 64  # c n lambda1 at c = 1
    elapsed = time.time() - t0
    moments_ok = all(abs(r - 1) < 0.10 for r in ratios)
    lam_ok = 0.85 <= lam_scaled <= 1.15
    report(
        "8",
        moments_ok and lam_ok and elapsed < 300,
        f"conjugate n=k=64, 25 trials: bulk moment ratios {[f'{r:.3f}' for r in ratios]} "
        f"(within 10%), mean c n lambda1 = {lam_scaled:.3f} in [0.85, 1.15], {elapsed:.0f}s (< 5 min)",
    )


@pytest.mark.slow
def test_criterion_09_independent_model():
    t0 = time.time()
    spec = ChannelSpec(n=64, k=64, m=64, flavor="independent")
    rep = run_ensemble(spec, 25, seed=999)
    targets = [1.0, 2.0, 5.0]
    ratios = [rep.mean(f"bulk_m{p}") / targets[p - 1] for p in (1, 2, 3)]
    max_rescaled_top = float(rep.per_trial["lambda1"].max()) * 64**2
    mp_edge = (1 + 1) ** 2  # upper edge of the free Poisson with c^2 = 1
    converged = int(np.sum(rep.per_trial["lambda1_converged"]))
    elapsed = time.time() - t0
    moments_ok = all(abs(r - 1) < 0.10 for r in ratios)
    outlier_ok = max_rescaled_top <= 3 * mp_edge
    report(
        "9",
        moments_ok and outlier_ok and elapsed < 300,
        f"independent n=k=64, 25 trials: trace-route moment ratios "
        f"{[f'{r:.3f}' for r in ratios]} (within 10%), max rescaled eigenvalue "
        f"{max_rescaled_top:.2f} <= {3 * mp_edge}, lambda1 converged on {converged}/25 trials, "
        f"{elapsed:.0f}s (< 5 min)",
    )


def test_criterion_10_sublinear_bulk_concentration():
    t0 = time.time()
    stats = {}
    for n, k in ((64, 8), (256, 16)):
        spec = ChannelSpec(n=n, k=k, m=n, flavor="conjugate")
        rep = run_ensemble(spec, 10, seed=1010)
        stats[n] = (rep.mean("bulk_m1"), rep.mean("bulk_std"))
    elapsed = time.time() - t0
    mean_big, std_big = stats[256]
    _, std_small = stats[64]
    report(
        "10",
        abs(mean_big - 1) < 0.10 and std_big < 0.5 and std_big < std_small and elapsed < 300,
        f"d=1/2: n=256 bulk of k^2 lambda has mean {mean_big:.4f} (1 +- 10%), "
        f"std {std_big:.4f} (< 0.5 and < {std_small:.4f} at n=64), {elapsed:.0f}s (< 5 min)",
    )


@pytest.mark.slow
def test_criterion_11_entropy_defect():
    t0 = time.time()
    defects = {}
    for n in (48, 96):
        k = n // 2
        spec = ChannelSpec(n=n, k=k, m=n, flavor="conjugate")
        rep = run_ensemble(spec, 20, seed=1111)
        defects[n] = 2 * math.log(k) - rep.mean("entropy")
    elapsed = time.time() - t0
    in_window = 0.05 <= defects[96] <= 0.25
    closer = abs(defects[96] - 0.125) < abs(defects[48] - 0.125)
    report(
        "11",
        in_window and closer and elapsed < 300,
        f"d=1, c=1/2: defect 2 log k - H = {defects[48]:.4f} (n=48) -> {defects[96]:.4f} (n=96), "
        f"window [0.05, 0.25], target 1/8, closer at n=96, {elapsed:.0f}s (< 5 min)",
    )


def test_criterion_12_entropy_integral_closed_form():
    t0 = time.time()
    worst = 0.0
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        law = freeprob.MarchenkoPastur(c)
        quad = law.integrate(lambda x: x * math.log(x))
        worst = max(worst, abs(quad - freeprob.mp_entropy_integral(c)))
    exact_at_one = freeprob.mp_entropy_integral(1.0) == 0.5
    elapsed = time.time() - t0
    report(
        "12",
        worst < 1e-6 and exact_at_one and elapsed < 1,
        f"x log x integral: closed form vs quadrature, worst |diff| = {worst:.2e} (< 1e-6), "
        f"value at c=1 exactly 1/2: {exact_at_one}, {elapsed:.2f}s (< 1 s)",
    )


def test_criterion_13_interlacing():
    t0 = time.time()
    slack = 1e-9
    violations = 0
    for t in range(10):
        z = product_output(ChannelSpec(n=16, k=16, m=16, flavor="conjugate"), trial_rng(1313, t))
        lam = z.eigenvalues()
        mu = z.pinched().eigenvalues()[:-1]  # compression spectrum (rank n^2 - 1)
        for i in range(len(mu)):
            if lam[i] < mu[i] - slack:
                violations += 1
            if i + 1 < len(lam) and mu[i] < lam[i + 1] - slack:
                violations += 1
    elapsed = time.time() - t0
    report(
        "13",
        violations == 0 and elapsed < 30,
        f"10 samples at n=k=16: eigenvalues of QZQ interlace those of Z within 1e-9; "
        f"{violations} violations, {elapsed:.0f}s (< 30 s)",
    )
