import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgchan import montecarlo
from wgchan.freeprob import vn_entropy
from wgchan.montecarlo import (
    ChannelSpec,
    DensityMatrix,
    apply_channel,
    bell_state,
    bell_vector,
    conjugate_spec,
    entropy_of,
    independent_spec,
    moment_ensemble,
    product_output,
    run_ensemble,
    sample_haar,
    trial_rng,
)


def naive_qr_unitary(dim, rng):
    """QR orthonormalization *without* the phase correction; not Haar."""
    g = rng.standard_normal((dim, dim, 2))
    q, _ = np.linalg.qr(g[..., 0] + 1j * g[..., 1])
    return q


def angle_chi2(angles, bins=24):
    """Chi-square statistic of angles against the uniform circle law."""
    counts, _ = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
    expected = len(angles) / bins
    return float(((counts - expected) ** 2 / expected).sum())


# ---------------------------------------------------------------------------
# Haar sampling


def test_sample_haar_unitary():
    u = sample_haar(7, 0)
    assert np.abs(u @ u.conj().T - np.eye(7)).max() < 1e-10


def test_sample_haar_deterministic():
    assert np.array_equal(sample_haar(5, 42), sample_haar(5, 42))
    assert not np.array_equal(sample_haar(5, 42), sample_haar(5, 43))


def test_sample_haar_entry_second_moment():
    # E |U11|^2 = 1/2 at dim 2
    rng = np.random.default_rng(1)
    u = montecarlo.haar_isometry(2, 2, rng, 40_000)
    vals = np.abs(u[:, 0, 0]) ** 2
    z = (vals.mean() - 0.5) / (vals.std(ddof=1) / math.sqrt(len(vals)))
    assert abs(z) < 3.5


def test_haar_eigenangles_uniform_but_naive_qr_not():
    # eigenvalue angles of a Haar unitary are uniform on the circle; plain QR
    # without the phase fix concentrates them and fails the same chi-square
    dim, samples, bins = 8, 600, 24
    rng = np.random.default_rng(7)
    fixed = montecarlo.haar_isometry(dim, dim, rng, samples)
    fixed_angles = np.angle(np.linalg.eigvals(fixed)).ravel()
    rng2 = np.random.default_rng(7)
    naive_angles = np.concatenate(
        [np.angle(np.linalg.eigvals(naive_qr_unitary(dim, rng2))) for _ in range(samples)]
    )
    # 99.9% chi-square quantile for 23 dof is ~ 49.7
    assert angle_chi2(fixed_angles, bins) < 49.7
    assert angle_chi2(naive_angles, bins) > 200.0


def test_haar_entry_phase_uniform():
    rng = np.random.default_rng(3)
    u = montecarlo.haar_isometry(3, 3, rng, 4_000)
    assert angle_chi2(np.angle(u[:, 0, 0])) < 49.7


def test_haar_isometry_matches_unitary_columns_law():
    # isometry sampling agrees in law with taking columns of a full unitary:
    # check the first-column second moment E |V_11|^2 = 1/rows
    rng = np.random.default_rng(11)
    vals = np.empty(4_000)
    for t in range(vals.size):
        v = montecarlo.haar_isometry(6, 2, rng)
        vals[t] = abs(v[0, 0]) ** 2
    z = (vals.mean() - 1 / 6) / (vals.std(ddof=1) / math.sqrt(vals.size))
    assert abs(z) < 3.5


# ---------------------------------------------------------------------------
# Bell state and channel


def test_bell_state_m1():
    assert np.array_equal(bell_state(1).entries, np.array([[1.0 + 0j]]))


def test_bell_state_m2_entries():
    e = bell_state(2).entries
    expected = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for b in (0, 3):
            expected[a, b] = 0.5
    assert np.abs(e - expected).max() < 1e-15


def test_bell_state_projector():
    for m in (2, 3):
        e = bell_state(m).entries
        assert np.abs(e @ e - e).max() < 1e-12
        assert abs(np.trace(e) - 1) < 1e-12


def test_apply_channel_trace_preserving():
    rng = np.random.default_rng(0)
    spec = ChannelSpec(n=3, k=2, m=2)
    u = sample_haar(6, rng)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = x @ x.conj().T
    x /= np.trace(x).real
    out = apply_channel(spec, u, x)
    assert abs(np.trace(out.entries) - 1) < 1e-10
    assert out.dim == 3


def test_apply_channel_trivial_ancilla_preserves_spectrum():
    # k = 1: conjugation by an isometry; output spectrum is the input spectrum
    # padded with zeros
    rng = np.random.default_rng(5)
    spec = ChannelSpec(n=4, k=1, m=2)
    u = sample_haar(4, rng)
    x = np.diag([0.75, 0.25]).astype(complex)
    out = apply_channel(spec, u, x)
    eigs = np.sort(np.linalg.eigvalsh(out.entries))[::-1]
    assert np.allclose(eigs[:2], [0.75, 0.25], atol=1e-12)
    assert np.allclose(eigs[2:], 0, atol=1e-12)


def test_apply_channel_against_index_loop_oracle():
    # entry-by-entry comparison with a slow loop implementing
    # Tr_k[U (X (x) P_l) U*] directly
    rng = np.random.default_rng(9)
    spec = ChannelSpec(n=2, k=2, m=2)
    n, k, m, l = spec.n, spec.k, spec.m, spec.l
    u = sample_haar(n * k, rng)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x = x @ x.conj().T
    x /= np.trace(x).real
    fast = apply_channel(spec, u, x).entries

    embedded = np.zeros((m * l, m * l), dtype=complex)
    for i in range(m):
        for j in range(m):
            embedded[i * l, j * l] = x[i, j]
    rotated = u @ embedded @ u.conj().T
    slow = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for kap in range(k):
                slow[a, b] += rotated[a * k + kap, b * k + kap]
    assert np.abs(fast - slow).max() < 1e-12


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(n=3, k=2, m=4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        ChannelSpec(n=0, k=1, m=1)
    with pytest.raises(ValueError):
        ChannelSpec(n=2, k=2, m=2, flavor="other")
    assert ChannelSpec(n=3, k=2, m=2).l == 3


# ---------------------------------------------------------------------------
# product outputs


def dense_product_oracle(spec, v_a, v_b):
    """Slow construction of [Phi (x) Phi'](E_m) from the two Stinespring
    isometries: (1/m) sum_ij Tr_k[v_i v_j*] (x) Tr_k[v'_i v'_j*]."""
    n, k, m = spec.n, spec.k, spec.m
    z = np.zeros((n * n, n * n), dtype=complex)
    for i in range(m):
        ai = v_a[:, i].reshape(n, k)
        bi = v_b[:, i].reshape(n, k)
        for j in range(m):
            aj = v_a[:, j].reshape(n, k)
            bj = v_b[:, j].reshape(n, k)
            z += np.kron(ai @ aj.conj().T, bi @ bj.conj().T)
    return z / m


def product_factor(spec, v_a, v_b):
    """The rank factor W of Z = W W* in the product basis, built from the
    isometries as `product_output` builds it: U_n W' from the real factor W'
    for the conjugate flavor, the complex factor for the independent one."""
    if spec.flavor == "conjugate":
        return real_basis_unitary(spec.n) @ montecarlo._real_factor(spec, v_a)
    return montecarlo._complex_factor(spec, v_a, v_b)


@pytest.mark.parametrize("flavor", ["conjugate", "independent"])
def test_product_output_matches_dense_oracle(flavor):
    spec = ChannelSpec(n=3, k=2, m=3, flavor=flavor)
    rng = trial_rng(17, 0)
    v_a = montecarlo.haar_isometry(spec.n * spec.k, spec.m, rng)
    v_b = v_a.conj() if flavor == "conjugate" else montecarlo.haar_isometry(spec.n * spec.k, spec.m, rng)
    oracle = dense_product_oracle(spec, v_a, v_b)

    # the factor's Gram and Bell overlap are those product_output holds (U_n
    # is unitary and fixes e), and the factor gives the dense output
    z = product_output(spec, trial_rng(17, 0))
    w = product_factor(spec, v_a, v_b)
    assert np.abs(w.conj().T @ w - z.gram).max() < 1e-12
    assert np.abs(w.conj().T @ bell_vector(3) - z.bell_overlap).max() < 1e-12
    dense = w @ w.conj().T
    assert np.abs(dense - oracle).max() < 1e-12

    # nonzero spectrum via the Gram side matches the dense spectrum
    ev_dense = np.sort(np.linalg.eigvalsh(oracle))[::-1]
    ev_gram = z.eigenvalues()
    assert np.abs(ev_dense[: len(ev_gram)] - ev_gram).max() < 1e-12


def test_product_output_output_side_to_dense_matches_oracle():
    # conjugate flavor with k > n: the output-side Gram is Z in the real basis,
    # and U_n must rotate it back to the product basis entry by entry
    spec = ChannelSpec(n=3, k=5, m=5, flavor="conjugate")
    v = montecarlo.haar_isometry(spec.n * spec.k, spec.m, trial_rng(19, 0))
    oracle = dense_product_oracle(spec, v, v.conj())
    z = product_output(spec, trial_rng(19, 0))
    assert z.side == "output"
    u = real_basis_unitary(3)
    assert np.abs(u @ z.gram @ u.conj().T - oracle).max() < 1e-12


def test_gram_dtype_pins_the_route():
    # conjugate outputs live in the real basis, independent ones stay complex
    for n, k in ((4, 3), (3, 5)):
        assert product_output(conjugate_spec(n, k), 3).gram.dtype == np.float64
        assert product_output(independent_spec(n, k), 3).gram.dtype == np.complex128


@st.composite
def conjugate_specs(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    m = draw(st.sampled_from([d for d in range(1, n * k + 1) if (n * k) % d == 0]))
    return ChannelSpec(n=n, k=k, m=m, flavor="conjugate")


@settings(max_examples=60, deadline=None)
@given(conjugate_specs(), st.integers(0, 2**32 - 1))
def test_real_route_matches_complex_gram(spec, seed):
    # the real-basis Gram has the spectrum and trace powers of the complex
    # W* W (or W W* when k > n) built from the same isometry draw, and its
    # pinching matches the dense Q Z Q oracle
    n, k, m = spec.n, spec.k, spec.m
    v = montecarlo.haar_isometry(spec.n * spec.k, spec.m, trial_rng(seed, 0))
    w = (v @ v.conj().T).reshape(n, k, n, k).transpose(0, 2, 1, 3).reshape(n * n, k * k) / math.sqrt(m)
    gram = w.conj().T @ w if k <= n else w @ w.conj().T
    z = product_output(spec, trial_rng(seed, 0))
    assert z.gram.dtype == np.float64 and z.side == ("ancilla" if k <= n else "output")
    expected = np.linalg.eigvalsh(gram)[::-1]
    assert np.abs(z.eigenvalues() - expected).max() < 1e-12
    powers = [float(np.sum(expected**p)) for p in range(1, 5)]
    assert np.abs(np.array(z.trace_powers(4)) - powers).max() < 1e-12

    e = bell_vector(n)
    q = np.eye(n * n) - np.outer(e, e.conj())
    oracle = np.linalg.eigvalsh(q @ (w @ w.conj().T) @ q)[::-1]
    pinched = z.pinched().eigenvalues()
    assert np.abs(pinched - oracle[: pinched.size]).max() < 1e-12


def real_basis_unitary(d):
    """U_d of the module docstring as a dense d^2 x d^2 matrix."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        u[a * d + a, a * d + a] = 1
        for b in range(a + 1, d):
            ab, ba = a * d + b, b * d + a
            u[ab, ab] = u[ba, ab] = math.sqrt(0.5)
            u[ab, ba], u[ba, ba] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
    return u


@pytest.mark.parametrize("n, k, m", [(7, 3, 7), (5, 1, 5), (1, 4, 2), (3, 5, 5), (4, 6, 8), (5, 4, 10)])
def test_real_factor_blocks_and_batches_are_bitwise_identical(monkeypatch, n, k, m):
    # P = V V* is split into row blocks only above 2^20 entries, beyond every
    # shape of the property test above: shrink the blocks to 1, 2 and 3 rows
    # of a (a partial last block whenever they do not divide n) and require
    # the bits of the one-block build; a stack must equal its trials built
    # one at a time, and all must be U_n* W U_k of the complex factor.  The
    # entries of v are multiples of 1/4, so every entry of P is exact
    # whichever BLAS kernel a block's shape selects, and only the
    # elementwise stage is under test.
    spec = conjugate_spec(n, k, m)
    rng = np.random.default_rng(31)
    v = (rng.integers(-4, 5, (3, n * k, m)) + 1j * rng.integers(-4, 5, (3, n * k, m))) / 4
    whole = montecarlo._real_factor(spec, v)
    assert whole.shape == (3, n * n, k * k) and whole.dtype == np.float64
    for t in range(3):
        assert np.array_equal(montecarlo._real_factor(spec, v[t]), whole[t])
    for rows in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_BLOCK_ENTRIES", rows * n * k * k)
        assert np.array_equal(montecarlo._real_factor(spec, v), whole)
        assert np.array_equal(montecarlo._real_factor(spec, v[1]), whole[1])
    w = montecarlo._complex_factor(spec, v, v.conj())
    rotated = real_basis_unitary(n).conj().T @ w @ real_basis_unitary(k)
    assert np.abs(rotated.imag).max() < 1e-13
    assert np.abs(rotated.real - whole).max() < 1e-13


def test_product_output_trace_one():
    for seed in range(5):
        z = product_output(conjugate_spec(4, 3), seed)
        assert abs(z.trace_powers(1)[0] - 1) < 1e-10


def test_product_output_output_side_when_k_exceeds_n():
    # k > n: the spectral carrier is the dense n^2 x n^2 output itself
    spec = ChannelSpec(n=3, k=9, m=3)
    z = product_output(spec, 2)
    assert z.side == "output" and z.gram.shape == (9, 9)
    assert abs(z.trace_powers(1)[0] - 1) < 1e-10
    assert z.eigenvalues().min() > -1e-10
    u = real_basis_unitary(3)
    assert abs(np.trace(u @ z.gram @ u.conj().T) - 1) < 1e-10


def test_pinched_matches_dense_compression():
    spec = conjugate_spec(4, 3)
    z = product_output(spec, 23)
    v = montecarlo.haar_isometry(spec.n * spec.k, spec.m, np.random.default_rng(23))
    w = product_factor(spec, v, v.conj())
    dense = w @ w.conj().T
    e = bell_vector(4)
    q = np.eye(16) - np.outer(e, e.conj())
    dense_pinched = q @ dense @ q
    ev_dense = np.sort(np.linalg.eigvalsh(dense_pinched))[::-1]
    ev_gram = np.sort(z.pinched().eigenvalues())[::-1]
    assert np.abs(ev_dense[: len(ev_gram)] - ev_gram).max() < 1e-11


def test_pinched_output_side_matches_dense():
    spec = ChannelSpec(n=3, k=9, m=3)
    z = product_output(spec, 4)
    e = bell_vector(3)
    q = np.eye(9) - np.outer(e, e.conj())
    expected = q @ z.gram @ q
    got = z.pinched().gram
    assert np.abs(expected - got).max() < 1e-12


def test_trace_powers_match_eigenvalues():
    # the independent spec's 576-wide Gram squares through zherk for tr Z^3
    # and tr Z^4
    for spec, seed in ((conjugate_spec(6, 4), 5), (independent_spec(24, 24), 8)):
        z = product_output(spec, seed)
        ev = z.eigenvalues()
        tp = z.trace_powers(4)
        for p in range(1, 5):
            assert tp[p - 1] == pytest.approx(float(np.sum(ev**p)), rel=1e-12)


def test_trace_powers_reject_orders_outside_1_to_4():
    z = product_output(conjugate_spec(3, 2), 1)
    for p_max in (0, 5):
        with pytest.raises(ValueError, match="p_max"):
            z.trace_powers(p_max)


@pytest.mark.parametrize("n, k", [(24, 24), (24, 32)])
def test_herk_above_cutoff_is_exactly_hermitian(n, k):
    # both Grams are wider than 512, so both are streamed: zherk and the
    # mirrored triangle, W* W on the ancilla side and W W* on the output side
    spec = independent_spec(n, k)
    rng = np.random.default_rng(8)
    v_a, v_b = (montecarlo.haar_isometry(spec.n * spec.k, spec.m, rng) for _ in range(2))
    g, _ = montecarlo._streamed_gram(spec, v_a, v_b)
    w = product_factor(spec, v_a, v_b)
    expected = w @ w.conj().T if k > n else w.conj().T @ w
    assert g.shape[0] > 512
    assert np.array_equal(g, g.conj().T)
    assert np.abs(g - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n, k, m", [(32, 32, 32), (24, 32, 24)])
def test_streamed_gram_matches_whole_factor(monkeypatch, n, k, m):
    # The blocks split the a's on the ancilla side and the k1's on the
    # output side, both 32 here, each a (k1) giving 32 rows (columns) of W:
    # 384-row blocks are three, of 12, 12 and 8.  Their edges fall on the
    # 128-row panels along which OpenBLAS's zherk sums, so the folded Gram
    # has the bits of the whole factor in one block.  (At n = 24 no block of
    # whole a's both does so and leaves three blocks.)  The strips of G^2
    # are ragged too.
    spec = independent_spec(n, k, m)
    rng = np.random.default_rng(7)
    v_a, v_b = (montecarlo.haar_isometry(spec.n * spec.k, spec.m, rng) for _ in range(2))
    monkeypatch.setattr(montecarlo, "_GRAM_BLOCK", n * n * k * k)
    whole = montecarlo.FactoredDensityMatrix(n, k, *montecarlo._streamed_gram(spec, v_a, v_b))
    if k <= n:
        _, overlap = montecarlo._gram_of_factor(n, k, product_factor(spec, v_a, v_b))
        assert np.array_equal(whole.bell_overlap, overlap)
    monkeypatch.setattr(montecarlo, "_GRAM_BLOCK", 384)
    monkeypatch.setattr(montecarlo, "_TRACE_STRIP", 200)
    side = k if k > n else n
    step = montecarlo._GRAM_BLOCK // side
    assert math.ceil(side / step) == 3 and side % step == 8
    streamed = product_output(spec, 7)
    assert np.array_equal(streamed.gram, whole.gram)
    if k <= n:
        assert np.array_equal(streamed.bell_overlap, whole.bell_overlap)
    assert streamed.largest_eigenvalue_info() == whole.largest_eigenvalue_info()
    ev = whole.eigenvalues()
    for p, t in enumerate(streamed.trace_powers(4), start=1):
        assert t == pytest.approx(math.fsum(ev**p), rel=1e-14, abs=0)


def test_streamed_trial_holds_one_gram(monkeypatch):
    # One independent trial at n = k = m = 32 with four blocks of 8 a's.
    # Building the whole factor next to its mix takes 2.1 times the Gram's
    # bytes, and a whole G^2 another 1.1 times on top of G.  The stream holds
    # G and a quarter of W (1.45 times in all), the strips a quarter of G.
    import tracemalloc

    monkeypatch.setattr(montecarlo, "_GRAM_BLOCK", 256)
    spec = independent_spec(32, 32, 32)
    product_output(spec, 4).trace_powers(4)  # scipy's import is not the trial's
    tracemalloc.start()
    try:
        z = product_output(spec, 5)
        z.trace_powers(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * z.gram.nbytes


def test_lanczos_matches_dense_top():
    rng = np.random.default_rng(2)
    basis, _ = np.linalg.qr(rng.standard_normal((600, 600)) + 1j * rng.standard_normal((600, 600)))
    spectrum = np.concatenate([[2.0], rng.uniform(0.0, 1.0, 599)])
    g = (basis * spectrum) @ basis.conj().T
    top, iters, converged = montecarlo._lanczos_lambda1(g, g.sum(axis=1))
    assert top == pytest.approx(2.0, rel=1e-10)
    assert converged and iters < 120


def test_lanczos_reports_no_convergence_on_clustered_top(monkeypatch):
    # two top eigenvalues 1e-4 apart: 10 steps cannot separate them, and the
    # solver says so instead of passing the Ritz value off as converged
    monkeypatch.setattr(montecarlo, "_LANCZOS_STEPS", 10)
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    spectrum = np.concatenate([[1.0, 1.0 - 1e-4], rng.uniform(0.0, 0.5, 298)])
    g = (basis * spectrum) @ basis.T
    top, iters, converged = montecarlo._lanczos_lambda1(g, g.sum(axis=1))
    assert not converged and iters == 10
    assert 0.5 < top <= 1.0 + 1e-12


@pytest.mark.parametrize("spec", [conjugate_spec(8, 4), independent_spec(6, 6), ChannelSpec(n=3, k=9, m=3)])
def test_small_gram_takes_lambda1_from_lanczos(spec):
    # lambda_1 has one solver, also for a Gram of at most 512: Lanczos from
    # the Bell overlap (or the Gram's row sums on the output side)
    z = product_output(spec, 12)
    assert z.gram.shape[0] <= 512
    top, iters, converged = z.largest_eigenvalue_info()
    assert iters >= 1 and converged
    assert top == pytest.approx(float(np.linalg.eigvalsh(z.gram)[-1]), rel=1e-12, abs=0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0.1], [0.3, 0.4]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.full((2, 2), bad))
    dm = DensityMatrix(np.eye(2) / 2)
    dm.validate_psd()


def test_entropy_of_guards():
    assert entropy_of([1.0, 0.0]) == 0.0
    for vals in ([1.0], [1.0000000000000002]):  # raw sums -0.0 and -2.2e-16
        h = entropy_of(vals)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
    assert entropy_of([0.5, 0.5]) == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        entropy_of([1.1, -0.1])
    # a broken spectrum fails closed instead of passing as a pure state
    for bad in (math.nan, math.inf, -math.inf):
        for vals in ([bad, 1.0], [bad, bad]):
            with pytest.raises(ValueError, match="finite"):
                entropy_of(vals)
            with pytest.raises(ValueError):
                vn_entropy(vals)


# ---------------------------------------------------------------------------
# ensembles


def test_eigenvalue_interlacing_after_pinching():
    # compression spectrum interlaces the original spectrum
    spec = conjugate_spec(6, 6)
    for seed in range(3):
        z = product_output(spec, trial_rng(61, seed))
        lam = z.eigenvalues()
        mu = z.pinched().eigenvalues()[:-1]  # drop the structural zero
        for i in range(len(mu)):
            assert lam[i] >= mu[i] - 1e-9
            if i + 1 < len(lam):
                assert mu[i] >= lam[i + 1] - 1e-9


def test_run_ensemble_single_trial_reduces_to_report():
    # the conjugate flavor at n = 6, k = 3: bulk rescaled by k^2 = 9, lambda_1 dropped
    spec = conjugate_spec(6, 3)
    rep = run_ensemble(spec, 1, 77)
    eigs = product_output(spec, trial_rng(77, 0)).eigenvalues()
    bulk = 9.0 * eigs[1:]
    positive = eigs[eigs > 0]
    assert rep.per_trial["lambda1"][0] == pytest.approx(eigs[0], rel=1e-12)
    assert rep.per_trial["entropy"][0] == pytest.approx(-(positive * np.log(positive)).sum(), rel=1e-12)
    for p in range(1, 5):
        assert rep.per_trial[f"bulk_m{p}"][0] == pytest.approx((bulk**p).mean(), rel=1e-12)


@pytest.mark.parametrize("route", ["eigensolve", "trace"])
def test_run_ensemble_refuses_a_trial_without_unit_trace(monkeypatch, route):
    # tr Z = 2: the eigenvalue sum on the eigensolve route, tr Z on the trace route
    spec = conjugate_spec(6, 3)
    doubled = lambda spec, rng: montecarlo.FactoredDensityMatrix(  # noqa: E731
        spec.n, spec.k, 2 * np.eye(9) / 9, np.full(9, 1 / 3)
    )
    monkeypatch.setattr(montecarlo, "product_output", doubled)
    if route == "trace":
        monkeypatch.setattr(montecarlo, "FULL_SPECTRUM_CAP", 0)
    with pytest.raises(ValueError, match="trace 2"):
        run_ensemble(spec, 1, 5, full_spectrum=route == "eigensolve")


def test_run_ensemble_stderr_shrinks():
    spec = conjugate_spec(5, 2)
    small = run_ensemble(spec, 25, 3)
    large = run_ensemble(spec, 100, 3)
    ratio = small.stderr("entropy") / large.stderr("entropy")
    assert 1.2 < ratio < 3.4  # ~2 expected for 4x the trials


def test_run_ensemble_trials_extend_as_a_prefix():
    # trial t draws from default_rng([seed, t]), so more trials only append
    spec = conjugate_spec(5, 3)
    short = run_ensemble(spec, 4, 15)
    long = run_ensemble(spec, 8, 15)
    assert short.names() == long.names()
    for name in short.names():
        assert np.array_equal(short.per_trial[name], long.per_trial[name][:4])


def test_trace_route_agrees_with_full_spectrum(monkeypatch):
    # the two computation paths must give identical statistics; with no
    # support under the cap, only full_spectrum=True eigensolves
    monkeypatch.setattr(montecarlo, "FULL_SPECTRUM_CAP", 0)
    spec = conjugate_spec(8, 4)
    full = run_ensemble(spec, 4, 21, full_spectrum=True)
    fast = run_ensemble(spec, 4, 21)
    assert "lambda1_iters" in fast.per_trial and "lambda1_iters" not in full.per_trial
    for name in ("lambda1", "bulk_m1", "bulk_m2", "bulk_m3", "bulk_std"):
        assert np.allclose(full.per_trial[name], fast.per_trial[name], rtol=1e-9)


@pytest.mark.parametrize(
    "spec, trials",
    [(conjugate_spec(24, 24), 2), (independent_spec(24, 24), 3), (independent_spec(24, 32), 3)],
    ids=["conjugate-24-24", "independent-24-24", "independent-24-32"],
)
def test_trace_route_reports_lanczos(monkeypatch, spec, trials):
    # on the trace route each trial says how many Lanczos steps lambda1 took
    # and whether it converged, and lambda1 agrees with the full eigensolve,
    # also where the independent flavor's top eigenvalues cluster at the edge
    # of the bulk
    monkeypatch.setattr(montecarlo, "FULL_SPECTRUM_CAP", 0)
    fast = run_ensemble(spec, trials, 8)
    full = run_ensemble(spec, trials, 8, full_spectrum=True)
    assert np.all(fast.per_trial["lambda1_converged"])
    assert np.all((fast.per_trial["lambda1_iters"] >= 1) & (fast.per_trial["lambda1_iters"] < 120))
    assert np.allclose(fast.per_trial["lambda1"], full.per_trial["lambda1"], rtol=1e-9, atol=0)
    assert "lambda1_iters" not in full.per_trial


def test_moment_ensemble_trace_normalization_and_determinism():
    spec = conjugate_spec(3, 3)
    a = moment_ensemble(spec, 2, 500, 9, pinched=True)
    b = moment_ensemble(spec, 2, 500, 9, pinched=True)
    assert np.array_equal(a.traces, b.traces)
    assert np.array_equal(a.pinched_traces, b.pinched_traces)
    assert np.abs(a.traces[:, 0] - 1.0).max() < 1e-10


def test_moment_ensemble_extension_keeps_prefix():
    # an independent (3, 2) trial's factor and isometry pair hold 36 entries each
    edge = montecarlo._MOMENT_BATCH_ENTRIES // 36
    for spec, short_trials, long_trials in [
        (conjugate_spec(3, 2), 100, 150),
        (independent_spec(3, 2), 100, 150),
        (independent_spec(3, 2), edge - 48, edge + 52),  # crosses a batch edge
    ]:
        short = moment_ensemble(spec, 2, short_trials, 13)
        long = moment_ensemble(spec, 2, long_trials, 13)
        assert np.array_equal(short.traces, long.traces[:short_trials])


@pytest.mark.parametrize(
    "spec, pinched",
    [
        (conjugate_spec(3, 2, 3), True),
        (conjugate_spec(3, 5, 3), True),  # output side
        (conjugate_spec(4, 3, 6), False),
        (independent_spec(3, 2, 3), False),
        (independent_spec(3, 5, 3), False),
    ],
)
def test_moment_ensemble_rows_are_sequential_product_outputs(spec, pinched):
    # one builder: trial t of the batch is the t-th product_output drawn from
    # the ensemble's one stream
    ens = moment_ensemble(spec, 4, 40, 21, pinched=pinched)
    rng = np.random.default_rng(21)
    for t in range(40):
        z = product_output(spec, rng)
        assert np.allclose(ens.traces[t], z.trace_powers(4), rtol=0, atol=1e-13)
        if pinched:
            assert np.allclose(ens.pinched_traces[t], z.pinched().trace_powers(4), rtol=0, atol=1e-13)


def test_moment_ensemble_matches_product_output_statistics():
    # same model, different stream layouts: agreement within Monte Carlo error
    spec = conjugate_spec(3, 3)
    ens = moment_ensemble(spec, 2, 4_000, 31)
    direct = np.array(
        [product_output(spec, trial_rng(31, t)).trace_powers(2)[1] for t in range(1_000)]
    )
    se = math.hypot(ens.stderr(2), direct.std(ddof=1) / math.sqrt(direct.size))
    assert abs(ens.mean(2) - direct.mean()) < 5 * se


def test_moment_ensemble_rejects_orders_outside_1_to_p_max():
    # negative indexing would read p = 0 as p_max and p = -1 as p_max - 1
    ens = moment_ensemble(conjugate_spec(3, 2), 3, 4, 13, pinched=True)
    for p in (0, -1, 4):
        for pinched in (False, True):
            for stat in (ens.mean, ens.stderr):
                with pytest.raises(ValueError, match="p must be in 1..3"):
                    stat(p, pinched=pinched)
    assert ens.mean(3) == ens.traces[:, 2].mean()


def test_moment_ensemble_single_trial_stderr_is_nan():
    ens = moment_ensemble(conjugate_spec(3, 2), 2, 1, 13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(ens.stderr(1))


def test_independent_flavor_consumes_two_draws():
    rng_c = trial_rng(1, 0)
    rng_i = trial_rng(1, 0)
    z_c = product_output(conjugate_spec(3, 2), rng_c)
    z_i = product_output(independent_spec(3, 2), rng_i)
    assert not np.allclose(z_c.gram, z_i.gram)


def test_sampled_outputs_are_density_matrices():
    # Hermitian spectral carrier, PSD up to 1e-10, unit trace
    for spec in (conjugate_spec(5, 3), independent_spec(4, 4), ChannelSpec(n=3, k=9, m=3)):
        for seed in range(3):
            z = product_output(spec, trial_rng(100, seed))
            assert np.abs(z.gram - z.gram.conj().T).max() < 1e-12
            assert abs(z.trace_powers(1)[0] - 1) < 1e-10
            assert float(z.eigenvalues().min()) > -1e-10


def test_fixed_ancilla_entropy_matches_two_level_prediction():
    # n = 200, k = 2, m = t n k with t = 1/2: entropy of the limit vector
    from wgchan.freeprob import gamma_t_vector, vn_entropy

    spec = ChannelSpec(n=200, k=2, m=200, flavor="conjugate")
    rep = run_ensemble(spec, 20, seed=55)
    target = vn_entropy(gamma_t_vector(0.5, 2))
    assert abs(rep.mean("entropy") / target - 1) < 0.05


def test_fast_ancilla_growth_entropy_ratio_trend():
    # k = n^3: H / (2 log n) climbs toward 1 as n grows
    import math as _math

    ratios = []
    for n in (4, 6, 8):
        spec = ChannelSpec(n=n, k=n**3, m=n, flavor="conjugate")
        rep = run_ensemble(spec, 8, seed=33)
        ratios.append(rep.mean("entropy") / (2 * _math.log(n)))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 0.99


def test_guards():
    with pytest.raises(ValueError):
        product_output(conjugate_spec(4001, 1), 0)  # output dim guard
    with pytest.raises(ValueError):
        bell_state(100)  # dense guard
    with pytest.raises(ValueError):
        run_ensemble(conjugate_spec(3, 2), 0, 1)
    with pytest.raises(ValueError):
        moment_ensemble(conjugate_spec(80, 80), 2, 2, 1)  # rank-factor guard, before sampling
