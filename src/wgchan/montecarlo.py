"""Haar sampling, random quantum channels, and spectra of product-channel
outputs.

The output Z = [Phi (x) Phi_bar](E_m) of a product channel on the Bell state
factors as Z = W W* with W built from the Stinespring isometry, so its nonzero
spectrum is carried by the k^2 x k^2 Gram matrix G = W* W.  All large-n paths
work through G and never materialize the n^2 x n^2 output.

For the conjugate flavor the mix P = V V* is Hermitian, so the factor obeys
conj(W) = S_n W S_k, where S_d swaps the two tensor factors of C^d (x) C^d.
The unitary U_d that keeps each e_aa and puts (e_ab + e_ba)/sqrt 2 at
position (a, b) and i (e_ab - e_ba)/sqrt 2 at position (b, a), a < b, has
S_d U_d = conj(U_d), so W' = U_n* W U_k is real.  That flavor builds W' block
by block straight from V and works in real arithmetic throughout: its
``gram`` and ``bell_overlap`` are W'^T W' (or W' W'^T) and W'^T e in that
real basis.  Spectra, trace powers and pinching do not depend on the basis,
since e = U_n* e.  The independent flavor has no such symmetry and stays
complex.

One draw function, `_draw`, builds the Gram and Bell overlap of a single
output and of a stack of them: the factor, Gram, pinching and trace-power
helpers act on the last two axes and carry any leading trial axis along.
`product_output` takes one output from it; `moment_ensemble` takes stacks
drawn in the same order from one stream, so its conjugate flavor also runs
in the real basis.  The one exception is a single complex Gram wider than
512 (`_streamed`): `_streamed_gram` folds it from blocks of W by BLAS
zherk, so W is never held whole, and `_trace_powers` squares it in strips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

#: Largest matrix dimension materialized densely (entries = this squared).
DENSE_DIM_GUARD = 4096
#: Largest product-output dimension n^2 handled in factored form.
FACTORED_DIM_GUARD = 16_000_000
#: Gram dimension up to which full eigendecompositions are used by default.
FULL_SPECTRUM_CAP = 3000
#: Most negative eigenvalue that `validate_psd` and `entropy_of` take as zero.
_NEGATIVE_EIGENVALUE_TOL = 1e-10

_FLAVORS = ("conjugate", "independent")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Stream for one trial: ``default_rng([seed, index])``.

    Adding trials extends the ensemble without reshuffling earlier trials.
    """
    return np.random.default_rng([seed, index])


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussian array; real/imag parts interleaved per entry
    so chunked draws concatenate identically to one big draw.  The draws
    are already laid out as complex128, so the complex view reads them in
    place, C-contiguous, with no further pass."""
    return rng.standard_normal(shape + (2,)).view(complex)[..., 0]


def _phase_fix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """q with each column times the phase of r's diagonal entry, in place:
    a copy would be one more isometry stack at the peak of a draw."""
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def sample_haar(dim: int, seed) -> np.ndarray:
    """One Haar-distributed unitary: a square `haar_isometry`."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return haar_isometry(dim, dim, _as_rng(seed))


def haar_isometry(rows: int, cols: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar isometry: distributed as the first `cols` columns of a Haar
    unitary of size `rows`.  Complex Ginibre, QR, then the diagonal phase
    correction that makes the triangular factor positive on the diagonal;
    plain QR without the correction is *not* Haar.  With `count`, a stack of
    that many drawn in turn from `rng`, equal to `count` separate calls."""
    if cols > rows:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    shape = (rows, cols) if count is None else (count, rows, cols)
    q, r = np.linalg.qr(_ginibre(rng, shape), mode="reduced")
    return _phase_fix(q, r)


#: Side of the square blocks in which `_mirror_lower` copies a triangle.
_MIRROR_BLOCK = 256
#: Rows (columns on the output side) of a complex factor that `_streamed_gram`
#: builds and folds into its Gram per zherk call, in whole a's (k1's).
_GRAM_BLOCK = 1024
#: Rows of G per strip of G^2 in `_strip_traces`.
_TRACE_STRIP = 256


def _streamed(shape: tuple[int, ...], dtype, outer: bool = False) -> bool:
    """Whether the Hermitian product of a factor of this shape and dtype is
    streamed: a single complex product more than 512 wide, whose Gram
    `product_output` takes from `_streamed_gram` and whose square
    `_trace_powers` takes in strips."""
    return np.dtype(dtype).kind == "c" and len(shape) == 2 and shape[0 if outer else 1] > 512


def _herk(w: np.ndarray, outer: bool = False) -> np.ndarray:
    """Hermitian product w* w, or w w* with `outer`, over the last two axes,
    for a real or complex w with any leading trial axes, by numpy matmul; for
    a real w, ``w.conj()`` is w itself, so numpy sees a matrix times its own
    transpose and hands it to syrk."""
    wh = w.conj().swapaxes(-1, -2)
    return w @ wh if outer else wh @ w


def _mirror_lower(g: np.ndarray) -> None:
    """Copy the conjugate transpose of the strict lower triangle of square g
    into its upper triangle, in place, one cache-sized block at a time."""
    dim = g.shape[0]
    for i0 in range(0, dim, _MIRROR_BLOCK):
        i1 = min(i0 + _MIRROR_BLOCK, dim)
        block = g[i0:i1, i0:i1]
        upper = np.triu_indices(i1 - i0, 1)
        block[upper] = block.T[upper].conj()
        for j0 in range(i1, dim, _MIRROR_BLOCK):
            j1 = min(j0 + _MIRROR_BLOCK, dim)
            g[i0:i1, j0:j1] = g[j0:j1, i0:i1].T.conj()


def _vdot(x: np.ndarray, y: np.ndarray, axes: int):
    """sum conj(x) y over the last `axes` axes: numpy's BLAS vdot when those
    are all the axes of both, one einsum per leading index otherwise."""
    if x.ndim == y.ndim == axes:
        return np.vdot(x, y)
    sub = "ab"[:axes]
    return np.einsum(f"...{sub},...{sub}->...", x.conj(), y)


def _trace_powers(gram: np.ndarray, p_max: int) -> np.ndarray:
    """tr G^p for p = 1..p_max <= 4 of Hermitian G on the last two axes of
    `gram`, as an array of shape ``gram.shape[:-2] + (p_max,)``: tr G^2 is
    <G, G>, and tr G^3 and tr G^4 are <G^2, G> and <G^2, G^2>, all Frobenius
    products.  G^2 comes whole from `_herk` for a real, batched or at most
    512 wide G; a `_streamed` G goes to `_strip_traces`, which never holds
    G^2 whole."""
    out = [np.trace(gram, axis1=-2, axis2=-1).real]
    if p_max >= 2:
        out.append(_vdot(gram, gram, 2).real)
    if p_max >= 3:
        if _streamed(gram.shape, gram.dtype):
            out.extend(_strip_traces(gram)[: p_max - 2])
        else:
            g2 = _herk(gram)
            out.append(_vdot(g2, gram, 2).real)
            if p_max == 4:
                out.append(_vdot(g2, g2, 2).real)
    return np.stack(out, axis=-1)


def _strip_traces(g: np.ndarray) -> tuple[float, float]:
    """(tr G^3, tr G^4) of a single Hermitian G from the lower triangle of
    G^2, one strip of `_TRACE_STRIP` rows at a time.  Strip r = [r0, r1) of
    G^2 left of column r1 is S = G[r, :] G[:, :r1], computed into one reused
    buffer; by Hermitian symmetry the part left of r0 stands for itself and
    its mirror, so it counts twice, and the diagonal block once:
    tr G^4 += 2 |S[:, :r0]|^2 + |S[:, r0:]|^2 and
    tr G^3 += 2 Re <G[r, :r0], S[:, :r0]> + Re <G[r, r0:r1], S[:, r0:]>.
    That is the work of one Hermitian product, like zherk's.  Each Re <x, y>
    is a float64 dot of the two views, so no strided slice is copied."""
    dim = g.shape[0]
    buf = np.empty(min(_TRACE_STRIP, dim) * dim, dtype=g.dtype)

    def re_dot(x, y):
        return float(np.einsum("ij,ij->", x.view(np.float64), y.view(np.float64)))

    t3 = t4 = 0.0
    for r0 in range(0, dim, _TRACE_STRIP):
        r1 = min(r0 + _TRACE_STRIP, dim)
        s = np.matmul(g[r0:r1], g[:, :r1], out=buf[: (r1 - r0) * r1].reshape(r1 - r0, r1))
        off, on = s[:, :r0], s[:, r0:]
        t4 += 2 * re_dot(off, off) + re_dot(on, on)
        t3 += 2 * re_dot(g[r0:r1, :r0], off) + re_dot(g[r0:r1, r0:r1], on)
    return t3, t4


def _pinch(gram: np.ndarray, overlap: np.ndarray | None, e: np.ndarray) -> np.ndarray:
    """Gram matrix of Q Z Q, Q = I - ee*, over the last two axes.  On the
    ancilla side, where `overlap` is W* e, it is G - (W* e)(W* e)*; on the
    output side (`overlap` None) `gram` is Z itself, compressed directly."""
    if overlap is not None:
        return gram - overlap[..., :, None] * overlap[..., None, :].conj()
    ze = gram @ e
    inner = _vdot(e, ze, 1)
    return (
        gram
        - e[:, None] * ze[..., None, :].conj()
        - ze[..., :, None] * e.conj()
        + inner[..., None, None] * np.outer(e, e.conj())
    )


@dataclass(frozen=True)
class ChannelSpec:
    """Dimensions of one random channel M_m -> M_n with ancilla k.

    The complement dimension l = nk/m must be an integer.  `flavor` selects
    the second leg of the product channel: the entrywise conjugate of the
    first, or an independent draw.
    """

    n: int
    k: int
    m: int
    flavor: str = "conjugate"

    def __post_init__(self):
        if min(self.n, self.k, self.m) < 1:
            raise ValueError("all dimensions must be >= 1")
        if (self.n * self.k) % self.m != 0:
            raise ValueError(f"m={self.m} must divide n*k={self.n * self.k}")
        if self.flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}, got {self.flavor!r}")

    @property
    def l(self) -> int:
        return (self.n * self.k) // self.m

    @property
    def output_dim(self) -> int:
        return self.n * self.n


def conjugate_spec(n: int, k: int, m: int | None = None) -> ChannelSpec:
    return ChannelSpec(n=n, k=k, m=n if m is None else m, flavor="conjugate")


def independent_spec(n: int, k: int, m: int | None = None) -> ChannelSpec:
    return ChannelSpec(n=n, k=k, m=n if m is None else m, flavor="independent")


class DensityMatrix:
    """Dense Hermitian, unit-trace, PSD matrix."""

    def __init__(self, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite")
        scale = max(1.0, float(np.abs(entries).max()))
        herm_defect = float(np.abs(entries - entries.conj().T).max())
        if herm_defect > 1e-12 * scale:
            raise ValueError(f"not Hermitian: defect {herm_defect:.3e}")
        tr = complex(np.trace(entries))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace {tr} is not 1 within 1e-10")
        self.entries = entries
        self.dim = entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues sorted descending."""
        return np.linalg.eigvalsh(self.entries)[::-1]

    def validate_psd(self) -> None:
        low = float(self.eigenvalues()[-1])
        # a NaN spectrum compares False with everything, so it fails here
        if not low >= -_NEGATIVE_EIGENVALUE_TOL:
            raise ValueError(f"negative eigenvalue {low:.3e} below -{_NEGATIVE_EIGENVALUE_TOL:.0e}")


class FactoredDensityMatrix:
    """Product-channel output of dimension n^2 held through the Gram of its
    rank factor: Z = W W* with W of shape (n^2, k^2).

    ``gram`` is the smaller of W* W (ancilla side, k <= n) and W W* (output
    side, k > n, in which case it is Z itself); either way its spectrum is
    the nonzero spectrum of Z.  On the ancilla side ``bell_overlap`` is W* e
    for the maximally entangled unit vector e on the output space, enough to
    pinch by Q = I - ee*.

    For the conjugate flavor W is the real factor W' = U_n* W U_k of the
    module docstring, which obeys conj(W) = S_n W S_k, so ``gram`` and
    ``bell_overlap`` are real arrays in that basis; a real ``gram`` marks it.
    Spectra, trace powers and pinching do not depend on it.
    """

    def __init__(self, n: int, k: int, gram: np.ndarray, bell_overlap: np.ndarray | None):
        self.n = n
        self.k = k
        self.gram = gram
        self.bell_overlap = bell_overlap

    @property
    def side(self) -> str:
        return "output" if self.k > self.n else "ancilla"

    def eigenvalues(self) -> np.ndarray:
        """Nonzero-support spectrum, descending."""
        return np.linalg.eigvalsh(self.gram)[::-1]

    def trace_powers(self, p_max: int) -> list[float]:
        """[tr Z, tr Z^2, ..., tr Z^{p_max}] for p_max in 1..4, without an
        eigensolve."""
        if not 1 <= p_max <= 4:
            raise ValueError("p_max must be in 1..4")
        return _trace_powers(self.gram, p_max).tolist()

    def largest_eigenvalue(self) -> float:
        return self.largest_eigenvalue_info()[0]

    def largest_eigenvalue_info(self) -> tuple[float, int, bool]:
        """(lambda_1, Lanczos steps, converged) by `_lanczos_lambda1` from
        the Bell overlap, or from the row sums of the Gram where there is no
        overlap or it vanishes."""
        v0 = self.bell_overlap
        if v0 is None or float(np.linalg.norm(v0)) < 1e-12:
            v0 = self.gram.sum(axis=1)
        return _lanczos_lambda1(self.gram, v0)

    def pinched(self) -> "FactoredDensityMatrix":
        """Compression Q Z Q by Q = I - ee* (Bell projector removed)."""
        g = self.bell_overlap
        if self.side == "ancilla" and g is None:
            raise ValueError("no Bell overlap stored; cannot pinch")
        gram = _pinch(self.gram, g, bell_vector(self.n, self.gram.dtype))
        overlap = None if g is None else np.zeros_like(g)
        return FactoredDensityMatrix(self.n, self.k, gram, overlap)


#: Most Lanczos steps `_lanczos_lambda1` takes, and the relative move of its
#: top Ritz value between steps at which it counts as converged.
_LANCZOS_STEPS = 120
_LANCZOS_RTOL = 1e-12


def _lanczos_lambda1(g: np.ndarray, v0: np.ndarray) -> tuple[float, int, bool]:
    """Largest eigenvalue of Hermitian g by Lanczos from v0 (in g's field),
    with the steps taken and whether the top Ritz value met `_LANCZOS_RTOL`.

    Each step reorthogonalizes against the whole basis by classical
    Gram-Schmidt, applied twice, and takes the top eigenvalue of the
    tridiagonal matrix by numpy's dense `eigvalsh`: it is at most
    `_LANCZOS_STEPS` wide, so this costs little next to one matvec.  The
    solver stops once that value moves by at most `_LANCZOS_RTOL` relative
    between steps, or when the Krylov space is invariant.
    The top Ritz value increases toward lambda_1 from inside the spectrum, so
    a stop at `_LANCZOS_STEPS` still returns a usable spectral-edge estimate."""
    v = np.asarray(v0, dtype=g.dtype)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("zero starting vector")
    dim = g.shape[0]
    steps = min(_LANCZOS_STEPS, dim)
    basis = np.empty((steps, dim), dtype=g.dtype)
    tri = np.zeros((steps, steps))
    v = v / norm
    top = 0.0
    for j in range(steps):
        basis[j] = v
        w = g @ v
        tri[j, j] = np.vdot(v, w).real
        done = basis[: j + 1]
        for _ in range(2):
            w -= done.T @ (done @ w.conj()).conj()
        new_top = float(np.linalg.eigvalsh(tri[: j + 1, : j + 1])[-1])
        beta = float(np.linalg.norm(w))
        if abs(new_top - top) <= _LANCZOS_RTOL * max(abs(new_top), 1e-300) or beta == 0 or j + 1 == dim:
            return new_top, j + 1, True
        top = new_top
        if j + 1 < steps:
            tri[j + 1, j] = tri[j, j + 1] = beta
        v = w / beta
    return top, steps, False


def entropy_of(eigenvalues: np.ndarray | list[float]) -> float:
    """Von Neumann entropy -sum x log x (natural log) with 0 log 0 := 0.
    Never below +0.0: an eigenvalue that rounding puts just above 1 would
    give a negative sum, or -0.0 for an exact 1.  A NaN or infinite
    eigenvalue is refused, not dropped."""
    vals = np.asarray(list(eigenvalues) if not isinstance(eigenvalues, np.ndarray) else eigenvalues, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("eigenvalues must be finite")
    if vals.size and float(vals.min()) < -_NEGATIVE_EIGENVALUE_TOL:
        raise ValueError(f"eigenvalue {vals.min():.3e} below -{_NEGATIVE_EIGENVALUE_TOL:.0e}")
    vals = np.clip(vals, 0.0, None)
    pos = vals[vals > 0]
    h = float(-(pos * np.log(pos)).sum())
    return 0.0 if h <= 0 else h


def bell_vector(n: int, dtype=complex) -> np.ndarray:
    """Maximally entangled unit vector (1/sqrt(n)) sum_a |aa> on C^n (x) C^n,
    in `dtype`; a real one is e in the real basis too (U_n* e = e)."""
    e = np.zeros(n * n, dtype=dtype)
    e[np.arange(n) * n + np.arange(n)] = 1.0 / math.sqrt(n)
    return e


def bell_state(m: int) -> DensityMatrix:
    """Rank-one projector onto the maximally entangled vector, dimension m^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m * m > DENSE_DIM_GUARD:
        raise ValueError(f"dense Bell state of dimension {m * m} exceeds guard")
    e = bell_vector(m)
    return DensityMatrix(np.outer(e, e.conj()))


def apply_channel(spec: ChannelSpec, unitary: np.ndarray, state) -> DensityMatrix:
    """Stinespring action X -> Tr_k[U (X (x) P_l) U*].

    P_l is the projector on the first basis vector of the l-dimensional
    complement space (any fixed choice is equivalent by unitary invariance).
    """
    x = state.entries if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    n, k, m, l = spec.n, spec.k, spec.m, spec.l
    nk = n * k
    if unitary.shape != (nk, nk):
        raise ValueError(f"unitary must be {nk}x{nk}, got {unitary.shape}")
    if x.shape != (m, m):
        raise ValueError(f"input state must be {m}x{m}, got {x.shape}")
    embedded = np.zeros((nk, nk), dtype=complex)
    embedded.reshape(m, l, m, l)[:, 0, :, 0] = x
    rotated = unitary @ embedded @ unitary.conj().T
    out = np.einsum("akbk->ab", rotated.reshape(n, k, n, k))
    return DensityMatrix(out)


#: Complex entries of P = V V* per row block of `_real_factor`.
_BLOCK_ENTRIES = 1 << 20


def _complex_factor(spec: ChannelSpec, v_a: np.ndarray, v_b: np.ndarray) -> np.ndarray:
    """W[(a, b), (k1, k2)] = sum_i V_a[(a, k1), i] V_b[(b, k2), i] / sqrt m,
    for each leading index of the isometry stacks `v_a` and `v_b`, each of
    shape lead + (nk, m)."""
    n, k, m = spec.n, spec.k, spec.m
    lead = v_a.shape[:-2]
    mix = v_a @ v_b.swapaxes(-1, -2)
    w = np.empty(lead + (n * n, k * k), dtype=complex)
    w.reshape(lead + (n, n, k, k))[...] = mix.reshape(lead + (n, k, n, k)).swapaxes(-3, -2)
    w /= math.sqrt(m)
    return w


@lru_cache(maxsize=16)
def _real_factor_plan(n: int, k: int, m: int) -> tuple:
    """The k^2-long read pattern of `_real_factor` for each class of rows
    (a, b): a < b, a = b and a > b, in that order.  Each is a pair
    (offsets, coefficients), both of shape (2, 1, k^2): where entry (c, d)
    of the row reads P[(a, c), (b, d)] and P[(a, d), (b, c)] in the float64
    view of P, counted from P[(a, 0), (b, 0)], and what it multiplies each
    by."""
    s_above, s_below, s_on = np.array([1.0, 1j, math.sqrt(0.5)]) / math.sqrt(m)
    c, d = np.divmod(np.arange(k * k), k)
    upper = c <= d
    row = 2 * n * k
    plan = []
    for s, below in ((s_above.real, False), (s_on.real, False), (s_below.imag, True)):
        part = (upper == below).astype(np.intp)  # 0 reads Re P, 1 reads Im P
        offsets = np.stack([c * row + 2 * d + part, d * row + 2 * c + part])[:, None, :]
        coefs = np.stack([np.where(below & upper, -s, s), np.where(below | ~upper, -s, s)])[:, None, :]
        offsets.flags.writeable = coefs.flags.writeable = False  # shared by every caller
        plan.append((offsets, coefs))
    return tuple(plan)


def _real_factor(spec: ChannelSpec, v: np.ndarray) -> np.ndarray:
    """W' = U_n* W U_k for the conjugate flavor (for each leading index of
    the isometry stack `v`), written into one float64 array one row block
    of P = V V* at a time; neither the complex W nor the full P is ever
    formed.

    Row (a, b) of W is the k x k block M = P[(a, .), (b, .)] / sqrt m, and
    row (a, b) of W U_k is X = M U_k.  Since conj(W) = S_n W S_k, row (b, a)
    of W U_k is conj(X), so U_n* puts sqrt 2 Re X in row (a, b) when a < b,
    -sqrt 2 Im X when a > b and Re X when a = b.  All three read the same
    way off Y = s M + conj(s M)^T with s = 1, i, 1/sqrt 2 respectively:
    Re Y above the diagonal of Y, Im Y below it and Re Y / sqrt 2 on it.

    Entry (c, d) of that row is therefore (P1 c1 + P2 c2) d: P1 and P2 are
    the real or imaginary parts of the entries of P under M[c, d] and
    M[d, c], c1 and c2 are +-|s| / sqrt m, and d is sqrt 1/2 on the diagonal
    c = d and 1 off it.  `_real_factor_plan` holds, per class of (a, b),
    where P1 and P2 sit in the float64 view of P and their c1 and c2.  Each
    row a of a block takes its three runs of b (a > b, a = b, a < b) in one
    gather each, its (a, b) base offsets added to the pattern by
    broadcasting, so every elementwise step runs over contiguous float64
    data.  These are the roundings of forming Y in complex arithmetic, in
    the same order: s M with s purely real or purely imaginary rounds one
    product per part, adding the conjugate transpose adds or subtracts that
    part, and the diagonal factor comes last.  So W' is bitwise what Y
    gives from the same P, however the rows are blocked.
    """
    n, k, m = spec.n, spec.k, spec.m
    lead = v.shape[:-2]
    above, on, below = _real_factor_plan(n, k, m)
    w = np.empty(lead + (n, n, k * k))
    vh = v.conj().swapaxes(-1, -2)
    row_a = 2 * k * n * k  # floats of P in the k rows (a, .)
    b_start = np.arange(n)[:, None] * (2 * k)
    step = max(1, _BLOCK_ENTRIES // (n * k * k))
    for a0 in range(0, n, step):
        a1 = min(a0 + step, n)
        p = (v[..., a0 * k : a1 * k, :] @ vh).view(np.float64).reshape(lead + (-1,))
        for a in range(a0, a1):
            base = (a - a0) * row_a + b_start
            for (offsets, coefs), b0, b1 in ((below, 0, a), (on, a, a + 1), (above, a + 1, n)):
                if b0 < b1:
                    terms = np.take(p, base[b0:b1] + offsets, axis=-1)
                    terms *= coefs
                    np.add(terms[..., 0, :, :], terms[..., 1, :, :], out=w[..., a, b0:b1, :])
    w = w.reshape(lead + (n * n, k * k))
    w[..., :: k + 1] *= math.sqrt(0.5)
    return w


def _gram_of_factor(n: int, k: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(gram, Bell overlap) of the factor W by `_herk`, for each leading
    index: W* W and W* e on the ancilla side (k <= n), W W* and no overlap on
    the output side.  W* e is the conjugate of the sum over a of the rows
    (a, a) of W, divided by sqrt n."""
    if k > n:  # Z itself: the output side is the smaller one
        return _herk(w, outer=True), None
    gram = _herk(w)  # first: holding the rows (a, a) through it raises the peak
    a = np.arange(n)
    rows_aa = w.reshape(w.shape[:-2] + (n, n, k * k))[..., a, a, :]
    return gram, rows_aa.sum(axis=-2).conj() / math.sqrt(n)


def _streamed_gram(spec: ChannelSpec, v_a: np.ndarray, v_b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """`_gram_of_factor` of the complex factor W of one output whose Gram is
    `_streamed`, folded from blocks of W so that neither W nor its mix is
    ever held whole: rows of `_GRAM_BLOCK` // n a's on the ancilla side
    (k <= n), columns of `_GRAM_BLOCK` // k k1's on the output side.

    Each block is written over the last in one buffer, the rows (a, .) of
    one a at a time, their mix by scipy's zgemm (switching between numpy's
    and scipy's BLAS thread pools once per a cost a 64-wide trial about a
    tenth of its time on 2 vCPUs); the rows (a, a) behind the overlap are
    copied out as they are written.  zherk with beta = 1 then folds the
    block into one Fortran-ordered Gram that starts at zero: it reads the
    transposed view of the C-contiguous block as Fortran without a copy and
    fills the upper triangle of the conjugate product, which read through
    ``.T`` is the lower triangle in C order, so `_mirror_lower` fills the
    upper one once at the end.  The bits are those of the whole factor in one block
    whenever the block edges fall on BLAS's own panel edges along the summed
    axis (every 128 rows for OpenBLAS's Haswell kernels).

    scipy is imported only here, so no other path pays for the import."""
    from scipy.linalg.blas import zgemm, zherk

    n, k, m = spec.n, spec.k, spec.m
    outer = k > n
    v_a = v_a.reshape(n, k, m)
    step = max(1, _GRAM_BLOCK // (k if outer else n))
    a_step, k_step = (n, min(step, k)) if outer else (min(step, n), k)
    buf = np.empty(a_step * n * k_step * k, dtype=complex)
    rows_aa = np.empty((n, k * k), dtype=complex)
    dim = n * n if outer else k * k
    c = np.zeros((dim, dim), dtype=complex, order="F")
    for a0 in range(0, n, a_step):
        for k0 in range(0, k, k_step):
            part = v_a[a0 : a0 + a_step, k0 : k0 + k_step]
            rows_a, cols_a, _ = part.shape
            w = buf[: rows_a * n * cols_a * k].reshape(rows_a, n, cols_a, k)
            for a in range(rows_a):
                w[a] = zgemm(1.0, v_b.T, part[a].T, trans_a=1).T.reshape(cols_a, n, k).swapaxes(0, 1)
                w[a] /= math.sqrt(m)
                if not outer:
                    rows_aa[a0 + a] = w[a, a0 + a].reshape(-1)
            block = w.reshape(rows_a * n, cols_a * k)
            c = zherk(1.0, block.T, beta=1.0, c=c, trans=2 if outer else 0, lower=0, overwrite_c=1)
    gram = c.T
    _mirror_lower(gram)
    return gram, None if outer else rows_aa.sum(axis=0).conj() / math.sqrt(n)


def _check_factor_size(spec: ChannelSpec) -> None:
    """Raise ValueError unless one output of `spec` and its n^2 x k^2 rank
    factor fit the memory guards."""
    if spec.output_dim > FACTORED_DIM_GUARD:
        raise ValueError(f"output dimension {spec.output_dim} exceeds guard {FACTORED_DIM_GUARD}")
    if spec.output_dim * spec.k * spec.k > 2 * FACTORED_DIM_GUARD:
        raise ValueError(
            f"rank factor would hold {spec.output_dim * spec.k * spec.k} entries, "
            f"beyond the memory guard"
        )


def _draw(
    spec: ChannelSpec, rng: np.random.Generator, count: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """(gram, Bell overlap) of one output of `spec`, or with `count` of a
    stack of that many outputs drawn in turn from `rng`.

    Each output takes its nk x m Stinespring isometries V = U (I_m (x) |0_l>)
    from one `haar_isometry` call, which has the same law as those columns of
    a Haar unitary: one for the conjugate flavor, which then works in the
    real basis, two for the independent one, which stays complex.  The real
    route and a complex Gram at most 512 wide, or batched, build W whole by
    `_real_factor` or `_complex_factor`; a single `_streamed` complex Gram
    comes from `_streamed_gram`, so the output holds the Gram and one block
    of W at a time."""
    n, k, m = spec.n, spec.k, spec.m
    draws = 1 if spec.flavor == "conjugate" else 2
    v = haar_isometry(n * k, m, rng, draws * (count or 1))
    if count is not None:
        v = v.reshape(count, draws, n * k, m)
    v_a = v[..., 0, :, :]
    if draws == 1:
        return _gram_of_factor(n, k, _real_factor(spec, v_a))
    v_b = v[..., 1, :, :]
    if count is None and _streamed((n * n, k * k), complex, outer=k > n):
        return _streamed_gram(spec, v_a, v_b)
    return _gram_of_factor(n, k, _complex_factor(spec, v_a, v_b))


def product_output(spec: ChannelSpec, seed) -> FactoredDensityMatrix:
    """Output Z = [Phi (x) Phi_bar](E_m) (or [Phi (x) Psi] for the
    independent flavor) for one random draw by `_draw`; deterministic given
    the seed."""
    _check_factor_size(spec)
    return FactoredDensityMatrix(spec.n, spec.k, *_draw(spec, _as_rng(seed)))


def stderr_of(values: np.ndarray) -> float:
    """Standard error of the mean of `values` (for complex values, of the
    real and imaginary parts together); NaN for fewer than two."""
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


@dataclass
class EnsembleReport:
    """Per-trial statistics of `spec` with mean/stderr aggregation, and the
    bulk settings they were computed with, taken from `spec` by
    `_ensemble_settings`."""

    spec: ChannelSpec
    per_trial: dict[str, np.ndarray]
    scale: float = field(init=False)
    drop_largest: int = field(init=False)

    def __post_init__(self):
        self.scale, self.drop_largest, _ = _ensemble_settings(self.spec, 1)

    def names(self) -> list[str]:
        return sorted(self.per_trial)

    def mean(self, name: str) -> float:
        return float(self.per_trial[name].mean())

    def stderr(self, name: str) -> float:
        return stderr_of(self.per_trial[name])

    @classmethod
    def from_trials(cls, spec: ChannelSpec, stats: list[dict[str, float]]) -> EnsembleReport:
        """The report of per-trial statistics dicts, in trial order, as
        `iter_trial_statistics` yields them."""
        return cls(spec, {name: np.array([s[name] for s in stats]) for name in stats[0]})


def _trial_statistics(spec, rng, scale, drop_largest, eigensolve):
    """Statistics of one `product_output` drawn from `rng`; raise ValueError
    for an output whose trace (the eigenvalue sum, or tr Z on the trace
    route) is not 1 within 1e-10."""
    z = product_output(spec, rng)
    stats: dict[str, float] = {}
    if eigensolve:
        eigs = z.eigenvalues()
        trace = float(eigs.sum())
        stats["lambda1"] = float(eigs[0])
        stats["entropy"] = entropy_of(eigs)
        for p in range(1, 5):
            stats[f"bulk_m{p}"] = float(np.mean((scale * eigs[drop_largest:]) ** p))
    else:
        lam1, iters, converged = z.largest_eigenvalue_info()
        traces = z.trace_powers(4)
        trace = traces[0]
        stats["lambda1"] = lam1
        stats["lambda1_iters"] = iters
        stats["lambda1_converged"] = converged
        denom = z.gram.shape[0] - drop_largest
        for p in range(1, 5):
            removed = lam1**p if drop_largest else 0.0
            stats[f"bulk_m{p}"] = (traces[p - 1] - removed) * scale**p / denom
    # a NaN trace compares False with everything, so it fails here
    if not abs(trace - 1.0) <= 1e-10:
        raise ValueError(f"trial output has trace {trace}, expected 1 within 1e-10")
    stats["bulk_std"] = math.sqrt(max(stats["bulk_m2"] - stats["bulk_m1"] ** 2, 0.0))
    return stats


def _ensemble_settings(spec: ChannelSpec, trials: int, full_spectrum: bool = False) -> tuple[float, int, bool]:
    """(scale, drop_largest, whether to eigensolve) of `run_ensemble` for
    `spec`; raise ValueError for arguments it rejects, before any trial
    runs.  The bulk is rescaled by k^2 (the c^2 n^2 of the limit theorems
    expressed through the actual ancilla dimension) and loses lambda_1 for
    the conjugate flavor, whose outlier it is, unless lambda_1 is the only
    one of the min(n, k)^2 eigenvalues.  A trial eigensolves when
    `full_spectrum` is set or there are at most `FULL_SPECTRUM_CAP` of them."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_factor_size(spec)
    support = min(spec.n, spec.k) ** 2
    drop_largest = 1 if spec.flavor == "conjugate" and support > 1 else 0
    return float(spec.k * spec.k), drop_largest, full_spectrum or support <= FULL_SPECTRUM_CAP


def iter_trial_statistics(spec: ChannelSpec, trials: int, seed: int, full_spectrum: bool = False):
    """Check the arguments by `_ensemble_settings`, then return an iterator
    of statistics dicts that runs the trials one at a time, in order, as it
    is read."""
    scale, drop_largest, eigensolve = _ensemble_settings(spec, trials, full_spectrum)
    return (_trial_statistics(spec, trial_rng(seed, t), scale, drop_largest, eigensolve) for t in range(trials))


def run_ensemble(spec: ChannelSpec, trials: int, seed: int, full_spectrum: bool = False) -> EnsembleReport:
    """Independent seeded trials of `product_output`, aggregated, with the
    bulk settings of `_ensemble_settings`.

    A trial eigensolves when min(n, k)^2 is at most `FULL_SPECTRUM_CAP` or
    `full_spectrum` is set, and only then records the entropy.  Otherwise it
    takes the trace route: the bulk moments from trace powers, and lambda_1
    by Lanczos, with the steps it took (`lambda1_iters`, at most 120) and
    whether its top Ritz value settled to 1e-12 relative between steps
    (`lambda1_converged`).  Either route refuses a trial whose trace is not
    1 within 1e-10.  Trial t draws from ``default_rng([seed, t])``, so
    the first trials of a longer run are those of a shorter one.
    """
    return EnsembleReport.from_trials(spec, list(iter_trial_statistics(spec, trials, seed, full_spectrum)))


@dataclass
class MomentEnsemble:
    """Trial-wise traces tr(Z^p) (and optionally tr((QZQ)^p))."""

    p_max: int
    traces: np.ndarray  # (trials, p_max)
    pinched_traces: np.ndarray | None = None

    def mean(self, p: int, pinched: bool = False) -> float:
        return float(self._pick(p, pinched).mean())

    def stderr(self, p: int, pinched: bool = False) -> float:
        return stderr_of(self._pick(p, pinched))

    def _pick(self, p: int, pinched: bool) -> np.ndarray:
        """The per-trial traces of order p in 1..p_max."""
        if not 1 <= p <= self.p_max:
            raise ValueError(f"p must be in 1..{self.p_max}, got {p}")
        if pinched and self.pinched_traces is None:
            raise ValueError("pinched traces were not computed")
        return (self.pinched_traces if pinched else self.traces)[:, p - 1]


#: Cap of `moment_ensemble` on the entries of one batch's factor or isometry
#: stack, which keeps a batch's temporaries in cache.  It changes no value:
#: each trial's rows are computed on their own.
_MOMENT_BATCH_ENTRIES = 1 << 17


def validate_moment_args(spec: ChannelSpec, p_max: int, trials: int) -> None:
    """Raise ValueError unless `moment_ensemble` accepts (spec, p_max, trials)."""
    if p_max < 1 or p_max > 4:
        raise ValueError("p_max must be in 1..4")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_factor_size(spec)


def moment_ensemble(
    spec: ChannelSpec,
    p_max: int,
    trials: int,
    seed: int,
    pinched: bool = False,
) -> MomentEnsemble:
    """Monte Carlo estimates of E tr(Z^p) for p = 1..p_max from stacks of
    outputs by `_draw`, so the conjugate flavor runs in the real basis.
    Trial t is the t-th output drawn from the one sequential stream
    ``default_rng(seed)``: one isometry per trial for the conjugate flavor,
    two for the independent one.  Extending `trials` therefore extends the
    ensemble.
    """
    validate_moment_args(spec, p_max, trials)
    n, k, m = spec.n, spec.k, spec.m
    real_basis = spec.flavor == "conjugate"
    draws = 1 if real_basis else 2
    size_cap = max(1, _MOMENT_BATCH_ENTRIES // max(n * n * k * k, draws * n * k * m))
    e = bell_vector(n, float if real_basis else complex)

    rng = np.random.default_rng(seed)
    traces = np.empty((trials, p_max))
    pinched_arr = np.empty((trials, p_max)) if pinched else None
    for start in range(0, trials, size_cap):
        size = min(size_cap, trials - start)
        gram, overlap = _draw(spec, rng, size)
        traces[start : start + size] = _trace_powers(gram, p_max)
        if pinched:
            pinched_arr[start : start + size] = _trace_powers(_pinch(gram, overlap, e), p_max)
    return MomentEnsemble(p_max=p_max, traces=traces, pinched_traces=pinched_arr)
