"""Haar sampling, random quantum channels, and spectra of product-channel
outputs.

The output Z = [Phi (x) Phi_bar](E_m) of a product channel on the Bell state
factors as Z = W W* with W built from the Stinespring isometry, so its nonzero
spectrum is carried by the k^2 x k^2 Gram matrix G = W* W.  All large-n paths
work through G and never materialize the n^2 x n^2 output; the dense matrix is
available below a dimension guard for oracle comparisons.

For the conjugate flavor the mix P = V V* is Hermitian, so the factor obeys
conj(W) = S_n W S_k, where S_d swaps the two tensor factors of C^d (x) C^d.
The unitary U_d that keeps each e_aa and puts (e_ab + e_ba)/sqrt 2 at
position (a, b) and i (e_ab - e_ba)/sqrt 2 at position (b, a), a < b, has
S_d U_d = conj(U_d), so W' = U_n* W U_k is real.  That flavor builds W' block
by block straight from V and works in real arithmetic throughout: its
``gram``, ``bell_overlap`` and ``factor`` are W'^T W' (or W' W'^T), W'^T e
and W' in that real basis.  Spectra, trace powers, pinching and
``to_dense()`` do not depend on the basis: e = U_n* e, and ``to_dense()``
undoes U_n.  The independent flavor has no such symmetry and stays complex.

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


def _zherk_lower(w: np.ndarray, outer: bool) -> np.ndarray:
    """Lower triangle of w* w (w w* with `outer`) for one complex matrix,
    zeros above it, from BLAS zherk.  Passing the transposed view of a
    C-contiguous array gives zherk a Fortran layout without copying; it
    returns the upper triangle of the conjugate product in Fortran order,
    which read through ``.T`` is the lower triangle in C order.

    scipy is imported here, at first use, and nowhere else in the package:
    only a complex product more than 512 wide needs it, so every other path
    starts without paying for the import.  Python's import lock makes the
    first call safe from several threads at once."""
    from scipy.linalg.blas import zherk

    return zherk(1.0, np.ascontiguousarray(w).T, trans=2 if outer else 0, lower=0).T


def _herk(w: np.ndarray, outer: bool = False) -> np.ndarray:
    """Hermitian product w* w, or w w* with `outer`, over the last two axes.
    A single product more than 512 wide takes the half-cost BLAS rank-k
    update of `_zherk_lower`, the only path that loads scipy, and
    `_mirror_lower` then fills the upper triangle; every other product is a
    numpy matmul."""
    if w.ndim > 2 or (w.shape[0] if outer else w.shape[1]) <= 512:
        wh = w.conj().swapaxes(-1, -2)
        return w @ wh if outer else wh @ w
    g = _zherk_lower(w, outer)
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


def _herm_traces_34(g: np.ndarray, p_max: int) -> list:
    """[tr g^3], or [tr g^3, tr g^4] when p_max is 4, for Hermitian g over
    the last two axes: real symmetric g squares as g^T g, which numpy hands
    to syrk; a single complex g more than 512 wide takes one triangular
    update L, the lower triangle of g^2 with zeros above it, and reads both
    traces off dot products with L, counting the off-diagonal half twice."""
    if np.isrealobj(g):
        g2 = g.swapaxes(-1, -2) @ g
        tr3 = _vdot(g2, g, 2)
        return [tr3, _vdot(g2, g2, 2)] if p_max == 4 else [tr3]
    if g.ndim > 2 or g.shape[0] <= 512:
        g2 = g @ g
        tr3 = np.sum(g2 * g.swapaxes(-1, -2), axis=(-2, -1)).real
        return [tr3, _vdot(g2, g2, 2).real] if p_max == 4 else [tr3]
    low = _zherk_lower(g, outer=False)
    d, d2 = g.diagonal().real, low.diagonal().real
    tr3 = 2.0 * float(np.vdot(g, low).real) - float(d @ d2)
    if p_max < 4:
        return [tr3]
    return [tr3, 2.0 * float(np.vdot(low, low).real) - float(d2 @ d2)]


def _trace_powers(gram: np.ndarray, p_max: int) -> np.ndarray:
    """tr G^p for p = 1..p_max <= 4 of Hermitian G on the last two axes of
    `gram`, as an array of shape ``gram.shape[:-2] + (p_max,)``."""
    out = [np.trace(gram, axis1=-2, axis2=-1).real]
    if p_max >= 2:
        out.append(_vdot(gram, gram, 2).real)
    if p_max >= 3:
        out.extend(_herm_traces_34(gram, p_max))
    return np.stack(out, axis=-1)


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

    def trace_powers(self, p_max: int) -> list[float]:
        out = []
        acc = self.entries
        for _ in range(p_max):
            out.append(float(np.trace(acc).real))
            acc = acc @ self.entries
        return out

    def validate_psd(self, tol: float = 1e-10) -> None:
        low = float(self.eigenvalues()[-1])
        if low < -tol:
            raise ValueError(f"negative eigenvalue {low:.3e} below -{tol:.0e}")


class FactoredDensityMatrix:
    """Product-channel output of dimension n^2 held through its rank factor
    Z = W W* with W of shape (n^2, k^2).

    ``gram`` is the smaller of W* W (ancilla side, k <= n) and W W* (output
    side, k > n, in which case it is Z itself); either way its spectrum is
    the nonzero spectrum of Z.  On the ancilla side ``bell_overlap`` is W* e
    for the maximally entangled unit vector e on the output space, enough to
    pinch by Q = I - ee*.  ``factor`` (W itself) is retained only on request.

    With ``real_basis`` (the conjugate flavor) W is the real factor
    W' = U_n* W U_k of the module docstring, which obeys conj(W) = S_n W S_k,
    so ``gram``, ``bell_overlap`` and ``factor`` are real arrays in that
    basis.  Spectra, trace powers, pinching and ``to_dense()`` (which undoes
    U_n) do not depend on it.
    """

    def __init__(
        self,
        n: int,
        k: int,
        gram: np.ndarray,
        bell_overlap: np.ndarray | None,
        factor: np.ndarray | None = None,
        side: str = "ancilla",
        real_basis: bool = False,
    ):
        if side not in ("ancilla", "output"):
            raise ValueError(f"side must be 'ancilla' or 'output', got {side!r}")
        self.n = n
        self.k = k
        self.dim = n * n
        self.gram = gram
        self.bell_overlap = bell_overlap
        self.factor = factor
        self.side = side
        self.real_basis = real_basis
        self._eigs: np.ndarray | None = None

    @property
    def rank_bound(self) -> int:
        return self.gram.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.gram).real)

    def eigenvalues(self, pad: bool = False) -> np.ndarray:
        """Nonzero-support spectrum (descending); `pad` appends the
        structural zeros up to the full dimension n^2."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self.gram)[::-1]
        if pad and self.dim > self._eigs.size:
            return np.concatenate([self._eigs, np.zeros(self.dim - self._eigs.size)])
        return self._eigs

    def trace_powers(self, p_max: int) -> list[float]:
        """[tr Z, tr Z^2, ..., tr Z^{p_max}] without a full eigensolve."""
        if p_max > 4:
            eigs = self.eigenvalues()
            return [float(np.sum(eigs**p)) for p in range(1, p_max + 1)]
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

    def entropy(self) -> float:
        return entropy_of(self.eigenvalues())

    def pinched(self) -> "FactoredDensityMatrix":
        """Compression Q Z Q by Q = I - ee* (Bell projector removed)."""
        g = self.bell_overlap
        if self.side == "ancilla" and g is None:
            raise ValueError("no Bell overlap stored; cannot pinch")
        e = _basis_bell(self.n, self.real_basis)
        gram = _pinch(self.gram, g, e)
        if self.side == "output":
            return FactoredDensityMatrix(self.n, self.k, gram, None, None, "output", self.real_basis)
        factor = None if self.factor is None else self.factor - np.outer(e, g.conj())
        return FactoredDensityMatrix(self.n, self.k, gram, np.zeros_like(g), factor, "ancilla", self.real_basis)

    def to_dense(self) -> DensityMatrix:
        if self.dim > DENSE_DIM_GUARD:
            raise ValueError(f"dense dimension {self.dim} exceeds guard {DENSE_DIM_GUARD}")
        if self.side == "output":
            z = self.gram
            if self.real_basis:  # U_n G U_n* = U_n (U_n G)* for symmetric G
                z = _unrotate_rows(_unrotate_rows(z, self.n).conj().T, self.n)
            return DensityMatrix(z, check=False)
        if self.factor is None:
            raise ValueError("factor not kept; rebuild with keep_factor=True")
        w = _unrotate_rows(self.factor, self.n) if self.real_basis else self.factor
        return DensityMatrix(w @ w.conj().T, check=False)


def _unrotate_rows(x: np.ndarray, n: int) -> np.ndarray:
    """U_n x: rows (a, b) and (b, a), a < b, of the real basis go back to
    (x_ab + i x_ba)/sqrt 2 and (x_ab - i x_ba)/sqrt 2; rows (a, a) stay."""
    a, b = np.triu_indices(n, 1)
    ab, ba = a * n + b, b * n + a
    out = x.astype(complex)
    out[ab] = (x[ab] + 1j * x[ba]) * math.sqrt(0.5)
    out[ba] = (x[ab] - 1j * x[ba]) * math.sqrt(0.5)
    return out


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
    """Von Neumann entropy -sum x log x (natural log) with 0 log 0 := 0."""
    vals = np.asarray(list(eigenvalues) if not isinstance(eigenvalues, np.ndarray) else eigenvalues, dtype=float)
    if vals.size and float(vals.min()) < -1e-10:
        raise ValueError(f"eigenvalue {vals.min():.3e} below -1e-10")
    vals = np.clip(vals, 0.0, None)
    pos = vals[vals > 0]
    return float(-(pos * np.log(pos)).sum())


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


def _complex_factor(spec: ChannelSpec, v_a: np.ndarray, v_b: np.ndarray) -> np.ndarray:
    """W[(a, b), (k1, k2)] = sum_i V_a[(a, k1), i] V_b[(b, k2), i] / sqrt m,
    for each leading index of the isometry stacks."""
    n, k, m = spec.n, spec.k, spec.m
    lead = v_a.shape[:-2]
    mix = v_a @ v_b.swapaxes(-1, -2)
    w = mix.reshape(lead + (n, k, n, k)).swapaxes(-3, -2).reshape(lead + (n * n, k * k))
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


def _gram_of_factor(n: int, k: int, w: np.ndarray):
    """(gram, Bell overlap, side) of the factor, for each leading index: W* W
    and W* e on the ancilla side (k <= n), W W* and no overlap on the output
    side.  A real factor takes numpy's real products, a complex one the
    Hermitian rank-k update."""
    real = np.isrealobj(w)
    wt = w.swapaxes(-1, -2)
    if k <= n:
        gram = wt @ w if real else _herk(w)
        diag = w.reshape(w.shape[:-2] + (n, n, k * k))[..., np.arange(n), np.arange(n), :]
        overlap = diag.sum(axis=-2).conj() / math.sqrt(n)
        return gram, overlap, "ancilla"
    gram = w @ wt if real else _herk(w, outer=True)  # Z itself: the output side is the smaller one
    return gram, None, "output"


def product_output(spec: ChannelSpec, seed, keep_factor: bool = False) -> FactoredDensityMatrix:
    """Output Z = [Phi (x) Phi_bar](E_m) (or [Phi (x) Psi] for the
    independent flavor) for one random draw.

    Conjugate flavor consumes one isometry draw and works in the real basis;
    independent consumes two from the same stream and stays complex.
    Deterministic given the seed.
    """
    if spec.output_dim > FACTORED_DIM_GUARD:
        raise ValueError(f"output dimension {spec.output_dim} exceeds guard {FACTORED_DIM_GUARD}")
    if spec.output_dim * spec.k * spec.k > 2 * FACTORED_DIM_GUARD:
        raise ValueError(
            f"rank factor would hold {spec.output_dim * spec.k * spec.k} entries, "
            f"beyond the memory guard"
        )
    rng = _as_rng(seed)
    v_a = _stinespring_isometry(spec, rng)
    real_basis = spec.flavor == "conjugate"
    if real_basis:
        w = _real_factor(spec, v_a)
    else:
        w = _complex_factor(spec, v_a, _stinespring_isometry(spec, rng))
    gram, overlap, side = _gram_of_factor(spec.n, spec.k, w)
    return FactoredDensityMatrix(
        spec.n, spec.k, gram, overlap, w if keep_factor else None, side, real_basis
    )


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


def spectral_report(z, scale: float = 1.0, drop_largest: int = 0, check_trace: bool = True) -> SpectralReport:
    """Eigendecompose, sort, and summarize a density matrix (dense array,
    DensityMatrix, or FactoredDensityMatrix)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    if not 0 <= drop_largest <= 2:
        raise ValueError("drop_largest must be in {0, 1, 2}")
    if isinstance(z, FactoredDensityMatrix):
        eigs = z.eigenvalues()
    elif isinstance(z, DensityMatrix):
        eigs = z.eigenvalues()
    else:
        arr = np.asarray(z)
        defect = float(np.abs(arr - arr.conj().T).max())
        if defect > 1e-10 * max(1.0, float(np.abs(arr).max())):
            raise ValueError(f"input not Hermitian: defect {defect:.3e}")
        eigs = np.linalg.eigvalsh(arr)[::-1]
    total = float(eigs.sum())
    if check_trace and abs(total - 1.0) > 1e-10:
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
        vals = self.per_trial[name]
        if vals.size < 2:
            return float("nan")
        return float(vals.std(ddof=1) / math.sqrt(vals.size))


def _trial_statistics(spec, rng, scale, drop_largest, full_spectrum):
    z = product_output(spec, rng)
    support = z.rank_bound
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
    trial runs.  The trace route can drop only lambda_1 from the bulk."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if scale is None:
        scale = float(spec.k * spec.k)
    if drop_largest is None:
        drop_largest = 1 if spec.flavor == "conjugate" else 0
    if full_spectrum is None:
        full_spectrum = min(spec.n, spec.k) ** 2 <= FULL_SPECTRUM_CAP
    if not scale > 0:
        raise ValueError("scale must be positive")
    if not 0 <= drop_largest <= (2 if full_spectrum else 1):
        raise ValueError(
            "drop_largest must be in {0, 1, 2}" if full_spectrum else "drop_largest must be 0 or 1 on the trace route"
        )
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
    conjugate flavor, none for the independent flavor.  Entropy is computed
    only on the full-spectrum path (small spectral carrier, or
    `full_spectrum=True`).  The trace route instead records, per trial,
    the Lanczos steps behind lambda_1 (`lambda1_iters`, at most 120) and
    whether its top Ritz value settled to 1e-12 relative between steps
    (`lambda1_converged`); they are 0 and True when lambda_1 comes from a
    full eigensolve.  Trial t draws from
    ``default_rng([seed, t])``, so the result does not depend on `threads`.
    """
    scale, drop_largest, full_spectrum = ensemble_settings(spec, trials, scale, drop_largest, full_spectrum)
    results = [
        stats
        for _, stats in iter_trial_statistics(spec, trials, seed, scale, drop_largest, full_spectrum, threads)
    ]
    report = EnsembleReport(spec=spec, trials=trials, seed=seed, scale=scale, drop_largest=drop_largest)
    for name in results[0]:
        report.per_trial[name] = np.array([r[name] for r in results])
    return report


@dataclass
class MomentEnsemble:
    """Trial-wise traces tr(Z^p) (and optionally tr((QZQ)^p))."""

    spec: ChannelSpec
    p_max: int
    seed: int
    traces: np.ndarray  # (trials, p_max)
    pinched_traces: np.ndarray | None = None

    def mean(self, p: int, pinched: bool = False) -> float:
        return float(self._pick(pinched)[:, p - 1].mean())

    def stderr(self, p: int, pinched: bool = False) -> float:
        col = self._pick(pinched)[:, p - 1]
        if col.size < 2:
            return float("nan")
        return float(col.std(ddof=1) / math.sqrt(col.size))

    def _pick(self, pinched: bool) -> np.ndarray:
        if pinched:
            if self.pinched_traces is None:
                raise ValueError("pinched traces were not computed")
            return self.pinched_traces
        return self.traces


#: Trials per batch of `moment_ensemble`, and its cap on the entries of one
#: batch's factor or isometry stack, which keeps a batch's temporaries in
#: cache.  Neither changes a value: each trial's rows are computed on their own.
_MOMENT_BATCH = 2048
_MOMENT_BATCH_ENTRIES = 1 << 17


def validate_moment_args(p_max: int, trials: int) -> None:
    """Raise ValueError unless `moment_ensemble` accepts (p_max, trials)."""
    if p_max < 1 or p_max > 4:
        raise ValueError("p_max must be in 1..4")
    if trials < 1:
        raise ValueError("trials must be >= 1")


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
    validate_moment_args(p_max, trials)
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
        w = _real_factor(spec, v[:, 0]) if real_basis else _complex_factor(spec, v[:, 0], v[:, 1])
        gram, overlap, _ = _gram_of_factor(n, k, w)
        traces[start : start + size] = _trace_powers(gram, p_max)
        if pinched:
            pinched_arr[start : start + size] = _trace_powers(_pinch(gram, overlap, e), p_max)
    return MomentEnsemble(spec=spec, p_max=p_max, seed=seed, traces=traces, pinched_traces=pinched_arr)
