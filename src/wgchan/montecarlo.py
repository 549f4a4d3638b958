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

One set of builders serves a single output and a batch of them: the factor,
Gram, pinching and trace-power helpers act on the last two axes and carry
any leading trial axis along.  `product_output` calls them on one draw;
`moment_ensemble` calls them on a stack of draws taken in the same order
from one stream, so its conjugate flavor also runs in the real basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

#: Largest matrix dimension materialized densely (entries = this squared).
DENSE_DIM_GUARD = 4096
#: Largest product-output dimension n^2 handled in factored form.
FACTORED_DIM_GUARD = 16_000_000
#: Gram dimension up to which full eigendecompositions are used by default.
FULL_SPECTRUM_CAP = 3000

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
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


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
#: Rows (columns with `outer`) of a complex factor that `product_output`
#: builds and folds into its Gram per zherk call, in whole a's (k1's).
_GRAM_BLOCK = 1024
#: Rows of G per strip of G^2 in `_strip_traces`.
_TRACE_STRIP = 256


def _streamed(shape: tuple[int, ...], dtype, outer: bool = False) -> bool:
    """Whether the Hermitian product of a factor of this shape and dtype is
    streamed: a single complex product more than 512 wide, whose Gram
    `product_output` folds by `_herk_blocks` and whose square
    `_trace_powers` takes in strips."""
    return np.dtype(dtype).kind == "c" and len(shape) == 2 and shape[0 if outer else 1] > 512


def _herk(w: np.ndarray, outer: bool = False) -> np.ndarray:
    """Hermitian product w* w, or w w* with `outer`, over the last two axes,
    for a real or complex w with any leading trial axes, by numpy matmul; for
    a real w, ``w.conj()`` is w itself, so numpy sees a matrix times its own
    transpose and hands it to syrk."""
    wh = w.conj().swapaxes(-1, -2)
    return w @ wh if outer else wh @ w


def _herk_blocks(blocks: Iterable[np.ndarray], outer: bool = False) -> np.ndarray:
    """The product of `_herk` for a single complex factor given as its row
    blocks (column blocks with `outer`), which need not exist at once, by
    BLAS zherk at half the cost of a matmul.  Each block is folded into one
    Fortran-ordered product by a zherk call with beta = 1 that overwrites
    it; zherk reads the transposed view of a C-contiguous block as Fortran
    without a copy, and returns the upper triangle of the conjugate product,
    which read through ``.T`` is the lower triangle in C order, so
    `_mirror_lower` fills the upper one once at the end.  The bits are those
    of the whole factor in one block whenever the block edges fall on BLAS's
    own panel edges along the summed axis (every 128 rows for OpenBLAS's
    Haswell kernels).

    scipy is imported only here and for the blocks of `_complex_factor`, so
    no other path pays for the import; Python's import lock makes the first
    call safe from several threads at once."""
    from scipy.linalg.blas import zherk

    trans = 2 if outer else 0
    c = None
    for block in blocks:
        a = np.ascontiguousarray(block).T
        if c is None:
            c = zherk(1.0, a, trans=trans, lower=0)
        else:
            c = zherk(1.0, a, beta=1.0, c=c, trans=trans, lower=0, overwrite_c=1)
    g = c.T
    _mirror_lower(g)
    return g


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

    def __init__(self, entries: np.ndarray, check: bool = True):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if check:
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

    def validate_psd(self, tol: float = 1e-10) -> None:
        low = float(self.eigenvalues()[-1])
        if low < -tol:
            raise ValueError(f"negative eigenvalue {low:.3e} below -{tol:.0e}")


class FactoredDensityMatrix:
    """Product-channel output of dimension n^2 held through the Gram of its
    rank factor: Z = W W* with W of shape (n^2, k^2).

    ``gram`` is the smaller of W* W (ancilla side, k <= n) and W W* (output
    side, k > n, in which case it is Z itself); either way its spectrum is
    the nonzero spectrum of Z.  On the ancilla side ``bell_overlap`` is W* e
    for the maximally entangled unit vector e on the output space, enough to
    pinch by Q = I - ee*.

    With ``real_basis`` (the conjugate flavor) W is the real factor
    W' = U_n* W U_k of the module docstring, which obeys conj(W) = S_n W S_k,
    so ``gram`` and ``bell_overlap`` are real arrays in that basis.  Spectra,
    trace powers and pinching do not depend on it.
    """

    def __init__(self, n: int, k: int, gram: np.ndarray, bell_overlap: np.ndarray | None, real_basis: bool = False):
        self.n = n
        self.k = k
        self.gram = gram
        self.bell_overlap = bell_overlap
        self.real_basis = real_basis
        self._eigs: np.ndarray | None = None

    @property
    def side(self) -> str:
        return "output" if self.k > self.n else "ancilla"

    def trace(self) -> float:
        return float(np.trace(self.gram).real)

    def eigenvalues(self) -> np.ndarray:
        """Nonzero-support spectrum, descending."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.gram)[::-1]
        return self._eigs

    def trace_powers(self, p_max: int) -> list[float]:
        """[tr Z, tr Z^2, ..., tr Z^{p_max}] for p_max in 1..4, without an
        eigensolve."""
        if not 1 <= p_max <= 4:
            raise ValueError("p_max must be in 1..4")
        return _trace_powers(self.gram, p_max).tolist()

    def largest_eigenvalue(self) -> float:
        return self.largest_eigenvalue_info()[0]

    def largest_eigenvalue_info(self) -> tuple[float, int, bool]:
        """(lambda_1, Lanczos steps, converged).  Read off the full
        spectrum (0 steps, converged) when it is known or the Gram matrix is
        at most 512 wide; otherwise Lanczos from the Bell overlap, which
        counts as converged once its top Ritz value moves by at most 1e-12
        relative between steps, within 120 steps."""
        if self._eigs is not None or self.gram.shape[0] <= 512:
            return float(self.eigenvalues()[0]), 0, True
        v0 = self.bell_overlap
        if v0 is None or float(np.linalg.norm(v0)) < 1e-12:
            v0 = self.gram.sum(axis=1)
        return _lanczos_lambda1(self.gram, v0)

    def pinched(self) -> "FactoredDensityMatrix":
        """Compression Q Z Q by Q = I - ee* (Bell projector removed)."""
        g = self.bell_overlap
        if self.side == "ancilla" and g is None:
            raise ValueError("no Bell overlap stored; cannot pinch")
        gram = _pinch(self.gram, g, _basis_bell(self.n, self.real_basis))
        overlap = None if g is None else np.zeros_like(g)
        return FactoredDensityMatrix(self.n, self.k, gram, overlap, self.real_basis)


def _lanczos_lambda1(
    g: np.ndarray, v0: np.ndarray, max_iter: int = 120, rtol: float = 1e-12
) -> tuple[float, int, bool]:
    """Largest eigenvalue of Hermitian g by Lanczos from v0 (in g's field),
    with the steps taken and whether the top Ritz value met `rtol`.

    Each step reorthogonalizes against the whole basis by classical
    Gram-Schmidt, applied twice, and takes the top eigenvalue of the
    tridiagonal matrix by numpy's dense `eigvalsh`: it is at most `max_iter`
    wide, so this costs little next to one matvec.  The solver stops once
    that value moves by at most `rtol` relative between steps, or when the
    Krylov space is invariant.
    The top Ritz value increases toward lambda_1 from inside the spectrum, so
    a stop at `max_iter` still returns a usable spectral-edge estimate."""
    v = np.asarray(v0, dtype=g.dtype)
    norm = float(np.linalg.norm(v))
    if norm == 0:
        raise ValueError("zero starting vector")
    dim = g.shape[0]
    steps = min(max_iter, dim)
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
        if abs(new_top - top) <= rtol * max(abs(new_top), 1e-300) or beta == 0 or j + 1 == dim:
            return new_top, j + 1, True
        top = new_top
        if j + 1 < steps:
            tri[j + 1, j] = tri[j, j + 1] = beta
        v = w / beta
    return top, steps, False


def entropy_of(eigenvalues: Iterable[float]) -> float:
    """Von Neumann entropy -sum x log x (natural log) with 0 log 0 := 0.
    Never below +0.0: an eigenvalue that rounding puts just above 1 would
    give a negative sum, or -0.0 for an exact 1.  A NaN or infinite
    eigenvalue is refused, not dropped."""
    vals = np.asarray(list(eigenvalues) if not isinstance(eigenvalues, np.ndarray) else eigenvalues, dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("eigenvalues must be finite")
    if vals.size and float(vals.min()) < -1e-10:
        raise ValueError(f"eigenvalue {vals.min():.3e} below -1e-10")
    vals = np.clip(vals, 0.0, None)
    pos = vals[vals > 0]
    h = float(-(pos * np.log(pos)).sum())
    return 0.0 if h <= 0 else h


def bell_vector(n: int) -> np.ndarray:
    """Maximally entangled unit vector (1/sqrt(n)) sum_a |aa> on C^n (x) C^n."""
    e = np.zeros(n * n, dtype=complex)
    e[np.arange(n) * n + np.arange(n)] = 1.0 / math.sqrt(n)
    return e


def _basis_bell(n: int, real_basis: bool) -> np.ndarray:
    """The Bell vector e, real in the real basis (U_n* e = e)."""
    e = bell_vector(n)
    return e.real if real_basis else e


def bell_state(m: int) -> DensityMatrix:
    """Rank-one projector onto the maximally entangled vector, dimension m^2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m * m > DENSE_DIM_GUARD:
        raise ValueError(f"dense Bell state of dimension {m * m} exceeds guard")
    e = bell_vector(m)
    return DensityMatrix(np.outer(e, e.conj()), check=False)


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
    return DensityMatrix(out, check=False)


def _stinespring_isometry(spec: ChannelSpec, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """nk x m isometry V = U (I_m (x) |0_l>); sampled directly as a Haar
    isometry, which has the same law as those columns of a Haar unitary.
    With `count`, a stack of that many drawn in turn."""
    return haar_isometry(spec.n * spec.k, spec.m, rng, count)


#: Complex entries of P = V V* per row block of `_real_factor`.
_BLOCK_ENTRIES = 1 << 20


def _complex_factor(spec: ChannelSpec, v_a: np.ndarray, v_b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """W[(a, b), (k1, k2)] = sum_i V_a[(a, k1), i] V_b[(b, k2), i] / sqrt m,
    for each leading index of the isometry stacks, over the a and k1 that
    `v_a` holds.  `v_a` is V_a viewed with shape lead + (a's, k1's, m): all
    of it gives W, a slice of the a axis a row block of W and a slice of the
    k1 axis a column block.  With `out`, a flat buffer of at least the
    block's size, the block of a single output is written into its head and
    its mix is formed by scipy's zgemm, the BLAS that folds it into the Gram: switching
    between numpy's and scipy's BLAS thread pools once per a cost a 64-wide
    trial about a tenth of its time on 2 vCPUs."""
    n, k, m = spec.n, spec.k, spec.m
    lead = v_a.shape[:-3]
    rows_a, cols_a = v_a.shape[-3:-1]
    rows = v_a.reshape(lead + (rows_a * cols_a, m))
    shape = lead + (rows_a * n, cols_a * k)
    if out is None:
        mix = rows @ v_b.swapaxes(-1, -2)
        w = np.empty(shape, dtype=complex)
    else:
        from scipy.linalg.blas import zgemm

        mix = zgemm(1.0, v_b.T, rows.T, trans_a=1).T
        w = out[: math.prod(shape)].reshape(shape)
    w.reshape(lead + (rows_a, n, cols_a, k))[...] = mix.reshape(lead + (rows_a, cols_a, n, k)).swapaxes(-3, -2)
    w /= math.sqrt(m)
    return w


def _complex_factor_blocks(spec: ChannelSpec, v_a: np.ndarray, v_b: np.ndarray):
    """Yield the complex factor W of one output in blocks for `_herk_blocks`
    to fold into its Gram: rows of `_GRAM_BLOCK` // n a's on the ancilla side
    (k <= n), columns of `_GRAM_BLOCK` // k k1's on the output side.  Each
    block is written over the last in one buffer, the rows (a, .) of one a
    at a time, so neither W nor more than a k x nk slice of its mix is ever
    held."""
    n, k, m = spec.n, spec.k, spec.m
    v_a = v_a.reshape(n, k, m)
    if k <= n:
        step = max(1, _GRAM_BLOCK // n)
        parts = [v_a[a0 : a0 + step] for a0 in range(0, n, step)]
    else:
        step = max(1, _GRAM_BLOCK // k)
        parts = [v_a[:, k0 : k0 + step] for k0 in range(0, k, step)]
    buf = np.empty(parts[0].shape[0] * n * parts[0].shape[1] * k, dtype=complex)
    for part in parts:
        rows_a, cols_a, _ = part.shape
        size = n * cols_a * k  # entries of the block in the rows of one a
        for a in range(rows_a):
            _complex_factor(spec, part[a : a + 1], v_b, buf[a * size :])
        yield buf[: rows_a * size].reshape(rows_a * n, cols_a * k)


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


def _gram_of_factor(n: int, k: int, w) -> tuple[np.ndarray, np.ndarray | None]:
    """(gram, Bell overlap) of the factor W, for each leading index: W* W
    and W* e on the ancilla side (k <= n), W W* and no overlap on the output
    side.  `w` is W, whose Gram `_herk` forms, or the blocks of one complex W
    from `_complex_factor_blocks`, which `_herk_blocks` folds into the Gram
    one at a time; the rows (a, a) behind the overlap are copied out of each
    block as it passes, and summed once at the end either way."""
    whole = isinstance(w, np.ndarray)
    if k > n:  # Z itself: the output side is the smaller one
        return (_herk(w, outer=True) if whole else _herk_blocks(w, outer=True)), None

    def rows_aa(block, a0):  # rows (a, a) of the row block of W from row (a0, 0) on
        by_a = block.reshape(block.shape[:-2] + (-1, n, k * k))
        a = np.arange(by_a.shape[-3])
        return by_a[..., a, a0 + a, :]

    if whole:
        gram, diag = _herk(w), rows_aa(w, 0)
    else:
        parts = []

        def tap():
            for block in w:
                parts.append(rows_aa(block, sum(len(p) for p in parts)))
                yield block

        gram = _herk_blocks(tap())
        diag = np.concatenate(parts)
    return gram, diag.sum(axis=-2).conj() / math.sqrt(n)


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


def product_output(spec: ChannelSpec, seed) -> FactoredDensityMatrix:
    """Output Z = [Phi (x) Phi_bar](E_m) (or [Phi (x) Psi] for the
    independent flavor) for one random draw.

    Conjugate flavor consumes one isometry draw and works in the real basis;
    independent consumes two from the same stream and stays complex.
    Deterministic given the seed.

    The real route and a complex Gram at most 512 wide build W whole and
    hold it with its Gram.  A `_streamed` complex Gram is folded from
    `_complex_factor_blocks` instead, so the trial holds the Gram and one
    block of W and its mix at a time.
    """
    _check_factor_size(spec)
    rng = _as_rng(seed)
    v_a = _stinespring_isometry(spec, rng)
    real_basis = spec.flavor == "conjugate"
    n, k = spec.n, spec.k
    if real_basis:
        w = _real_factor(spec, v_a)
    else:
        v_b = _stinespring_isometry(spec, rng)
        if _streamed((n * n, k * k), complex, outer=k > n):
            w = _complex_factor_blocks(spec, v_a, v_b)
        else:
            w = _complex_factor(spec, v_a.reshape(n, k, spec.m), v_b)
    gram, overlap = _gram_of_factor(n, k, w)
    return FactoredDensityMatrix(n, k, gram, overlap, real_basis)


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum summary: the largest eigenvalue, the rescaled bulk, entropy
    (natural log), and the first four empirical moments of the rescaled bulk.

    The bulk excludes `drop_largest` top eigenvalues and runs over the
    nonzero support of the representation.
    """

    eigenvalues: np.ndarray
    largest: float
    bulk: np.ndarray
    rescaled_bulk: np.ndarray
    entropy: float
    moments: tuple[float, float, float, float]
    scale: float
    drop_largest: int

    @property
    def bulk_mean(self) -> float:
        return self.moments[0]

    @property
    def bulk_std(self) -> float:
        return float(math.sqrt(max(self.moments[1] - self.moments[0] ** 2, 0.0)))


def spectral_report(z, scale: float = 1.0, drop_largest: int = 0) -> SpectralReport:
    """Eigendecompose, sort, and summarize a density matrix (dense array,
    DensityMatrix, or FactoredDensityMatrix) whose eigenvalues sum to 1.
    The bulk must keep at least one eigenvalue after `drop_largest`."""
    if not 0 < scale < math.inf:
        raise ValueError("scale must be finite and positive")
    if not 0 <= drop_largest <= 2:
        raise ValueError("drop_largest must be in {0, 1, 2}")
    if isinstance(z, (DensityMatrix, FactoredDensityMatrix)):
        eigs = z.eigenvalues()
    else:
        arr = np.asarray(z)
        defect = float(np.abs(arr - arr.conj().T).max())
        if defect > 1e-10 * max(1.0, float(np.abs(arr).max())):
            raise ValueError(f"input not Hermitian: defect {defect:.3e}")
        eigs = np.linalg.eigvalsh(arr)[::-1]
    if drop_largest >= len(eigs):
        raise ValueError(f"drop_largest={drop_largest} must be less than the number of eigenvalues, {len(eigs)}")
    total = float(eigs.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"eigenvalues sum to {total}, expected 1 within 1e-10")
    bulk = eigs[drop_largest:]
    rescaled = scale * bulk
    moments = tuple(float(np.mean(rescaled**p)) for p in range(1, 5))
    return SpectralReport(
        eigenvalues=eigs,
        largest=float(eigs[0]),
        bulk=bulk,
        rescaled_bulk=rescaled,
        entropy=entropy_of(eigs),
        moments=moments,
        scale=scale,
        drop_largest=drop_largest,
    )


def stderr_of(values: np.ndarray) -> float:
    """Standard error of the mean of `values` (for complex values, of the
    real and imaginary parts together); NaN for fewer than two."""
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


@dataclass
class EnsembleReport:
    """Per-trial statistics with mean/stderr aggregation.

    Deterministic given (spec, trials, seed): trial t draws from
    ``default_rng([seed, t])`` regardless of how trials are scheduled.
    """

    spec: ChannelSpec
    trials: int
    seed: int
    scale: float
    drop_largest: int
    per_trial: dict[str, np.ndarray] = field(default_factory=dict)

    def names(self) -> list[str]:
        return sorted(self.per_trial)

    def mean(self, name: str) -> float:
        return float(self.per_trial[name].mean())

    def stderr(self, name: str) -> float:
        return stderr_of(self.per_trial[name])

    @classmethod
    def from_trials(
        cls, spec: ChannelSpec, seed: int, scale: float, drop_largest: int, stats: list[dict[str, float]]
    ) -> EnsembleReport:
        """The report of per-trial statistics dicts, in trial order, as
        `iter_trial_statistics` yields them."""
        per_trial = {name: np.array([s[name] for s in stats]) for name in stats[0]}
        return cls(spec, len(stats), seed, scale, drop_largest, per_trial)


def _trial_statistics(spec, rng, scale, drop_largest, full_spectrum):
    z = product_output(spec, rng)
    support = z.gram.shape[0]
    stats: dict[str, float] = {}
    if full_spectrum:
        rep = spectral_report(z, scale=scale, drop_largest=drop_largest)
        stats["lambda1"] = rep.largest
        stats["entropy"] = rep.entropy
        for p in range(1, 5):
            stats[f"bulk_m{p}"] = rep.moments[p - 1]
        stats["bulk_std"] = rep.bulk_std
    else:
        lam1, iters, converged = z.largest_eigenvalue_info()
        traces = z.trace_powers(4)
        stats["lambda1"] = lam1
        stats["lambda1_iters"] = iters
        stats["lambda1_converged"] = converged
        top = [lam1] if drop_largest == 1 else []
        denom = support - drop_largest
        for p in range(1, 5):
            removed = sum(t**p for t in top)
            stats[f"bulk_m{p}"] = (traces[p - 1] - removed) * scale**p / denom
        stats["bulk_std"] = math.sqrt(max(stats["bulk_m2"] - stats["bulk_m1"] ** 2, 0.0))
    return stats


def ensemble_settings(
    spec: ChannelSpec,
    trials: int,
    scale: float | None = None,
    drop_largest: int | None = None,
    full_spectrum: bool | None = None,
) -> tuple[float, int, bool]:
    """(scale, drop_largest, full_spectrum) of `run_ensemble` with its
    defaults filled in; raise ValueError for arguments it rejects, before any
    trial runs.  The trace route can drop only lambda_1 from the bulk, and
    the bulk must keep at least one of the min(n, k)^2 eigenvalues, so the
    conjugate default drops lambda_1 only when there are two or more."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_factor_size(spec)
    support = min(spec.n, spec.k) ** 2
    if scale is None:
        scale = float(spec.k * spec.k)
    if drop_largest is None:
        drop_largest = 1 if spec.flavor == "conjugate" and support > 1 else 0
    if full_spectrum is None:
        full_spectrum = support <= FULL_SPECTRUM_CAP
    if not 0 < scale < math.inf:
        raise ValueError("scale must be finite and positive")
    if not 0 <= drop_largest <= (2 if full_spectrum else 1):
        raise ValueError(
            "drop_largest must be in {0, 1, 2}" if full_spectrum else "drop_largest must be 0 or 1 on the trace route"
        )
    if drop_largest >= support:
        raise ValueError(f"drop_largest={drop_largest} must be less than the number of eigenvalues, {support}")
    return scale, drop_largest, full_spectrum


def iter_trial_statistics(
    spec: ChannelSpec,
    trials: int,
    seed: int,
    scale: float | None = None,
    drop_largest: int | None = None,
    full_spectrum: bool | None = None,
    threads: int = 1,
):
    """Yield (trial index, statistics dict) in trial order; with threads > 1
    later trials compute in the background, but the order and the values are
    identical to the serial run."""
    scale, drop_largest, full_spectrum = ensemble_settings(spec, trials, scale, drop_largest, full_spectrum)

    def one(t: int) -> dict[str, float]:
        return _trial_statistics(spec, trial_rng(seed, t), scale, drop_largest, full_spectrum)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from enumerate(pool.map(one, range(trials)))
    else:
        for t in range(trials):
            yield t, one(t)


def run_ensemble(
    spec: ChannelSpec,
    trials: int,
    seed: int,
    scale: float | None = None,
    drop_largest: int | None = None,
    full_spectrum: bool | None = None,
    threads: int = 1,
) -> EnsembleReport:
    """Independent seeded trials of `product_output`, aggregated.

    Defaults: bulk rescaling k^2 (the c^2 n^2 of the limit theorems expressed
    through the actual ancilla dimension) and one dropped outlier for the
    conjugate flavor with two or more eigenvalues, none otherwise.  Entropy
    is computed only on the full-spectrum path (small spectral carrier, or
    `full_spectrum=True`).  The trace route instead records, per trial,
    the Lanczos steps behind lambda_1 (`lambda1_iters`, at most 120) and
    whether its top Ritz value settled to 1e-12 relative between steps
    (`lambda1_converged`); they are 0 and True when lambda_1 comes from a
    full eigensolve.  Trial t draws from
    ``default_rng([seed, t])``, so the result does not depend on `threads`.
    """
    scale, drop_largest, full_spectrum = ensemble_settings(spec, trials, scale, drop_largest, full_spectrum)
    stats = [s for _, s in iter_trial_statistics(spec, trials, seed, scale, drop_largest, full_spectrum, threads)]
    return EnsembleReport.from_trials(spec, seed, scale, drop_largest, stats)


@dataclass
class MomentEnsemble:
    """Trial-wise traces tr(Z^p) (and optionally tr((QZQ)^p))."""

    spec: ChannelSpec
    p_max: int
    seed: int
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


#: Trials per batch of `moment_ensemble`, and its cap on the entries of one
#: batch's factor or isometry stack, which keeps a batch's temporaries in
#: cache.  Neither changes a value: each trial's rows are computed on their own.
_MOMENT_BATCH = 2048
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
    """Monte Carlo estimates of E tr(Z^p) for p = 1..p_max, batched over
    trials through the builders of `product_output`, so the conjugate flavor
    runs in the real basis.  Trial t is the t-th `product_output` drawn from
    the one sequential stream ``default_rng(seed)``: one isometry per trial
    for the conjugate flavor, two for the independent one.  Extending
    `trials` therefore extends the ensemble.
    """
    validate_moment_args(spec, p_max, trials)
    n, k, m = spec.n, spec.k, spec.m
    real_basis = spec.flavor == "conjugate"
    draws = 1 if real_basis else 2
    size_cap = max(1, min(_MOMENT_BATCH, _MOMENT_BATCH_ENTRIES // max(n * n * k * k, draws * n * k * m)))
    e = _basis_bell(n, real_basis)

    rng = np.random.default_rng(seed)
    traces = np.empty((trials, p_max))
    pinched_arr = np.empty((trials, p_max)) if pinched else None
    for start in range(0, trials, size_cap):
        size = min(size_cap, trials - start)
        v = _stinespring_isometry(spec, rng, size * draws).reshape(size, draws, n * k, m)
        if real_basis:
            w = _real_factor(spec, v[:, 0])
        else:
            w = _complex_factor(spec, v[:, 0].reshape(size, n, k, m), v[:, 1])
        gram, overlap = _gram_of_factor(n, k, w)
        traces[start : start + size] = _trace_powers(gram, p_max)
        if pinched:
            pinched_arr[start : start + size] = _trace_powers(_pinch(gram, overlap, e), p_max)
    return MomentEnsemble(spec=spec, p_max=p_max, seed=seed, traces=traces, pinched_traces=pinched_arr)
