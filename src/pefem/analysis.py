"""Linear solves, error norms, convergence-rate fitting, patch tests."""

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import AssemblyError, ConfigurationError, SingularSystemError, SolverError
from .fem import _chunked_matmul

log = logging.getLogger(__name__)

# The normwise backward error ||F - A x|| / (||A|| ||x|| + ||F||), in the
# infinity norm, that every solve proves (Rigal & Gaches, J. ACM 1967).
# The plain residual bounds the exact value by its own plus eps (N + 1)
# for rows of at most N entries (see `_residual`), so one SpMV proves
# 1e-13 for rows of up to about 440 entries.  A P4 vertex row holds
# 1 + 10 v entries for a vertex of valence v: 71 on the disk meshes,
# where the slack is 1.6e-14.  1e-13 is 450 units of roundoff: x solves
# exactly a system within a relative 1e-13 of the one given.
BACKWARD_ERROR_TOL = 1e-13
MAX_REFINEMENT_STEPS = 10
# The H1 error a patch test allows; `patch_test` scales it by the random
# polynomial's coefficient sum when that exceeds one.
PATCH_TOL = 1e-8
# Veltkamp's splitting constant 2^27 + 1: a double times it splits into
# two halves of at most 26 significant bits, whose products are exact.
_SPLITTER = 134217729.0
# Matrix entries per block of `compensated_residual`: its temporaries stay
# small enough for the cache and below glibc's default mmap threshold.
_RESIDUAL_BLOCK = 8192
_EPS = np.finfo(float).eps

_DIAGNOSTICS = "%d dofs, nnz(L+U) %d, %d refinement steps, backward errors %s"


def solve(system):
    """Sparse direct solve proving a normwise backward error of 1e-13.

    SuperLU factorizes the assembled matrix A once, as A^T: it reads the
    CSC view `A.T` of the CSR matrix, which shares A's arrays, so no copy
    is made, and every solve with A is a transposed solve with the
    factors.  It orders by minimum degree on the pattern of A + A^T and
    pivots on the diagonal unless a diagonal entry is below 0.1 times the
    largest in its row of A, which keeps the near-symmetric pattern of the
    pefem matrices.  It relaxes no supernodes, since relaxed ones are
    padded with explicit zeros: on the ellipse at n = 128, k = 2, strong
    Dirichlet, supernodes of up to 3 columns store 1,256,279 entries in
    L + U, against 922,475 without.  It factorizes one column at a time
    (`panel_size=1`; scipy's default is 20): SuperLU updates panels of w
    consecutive columns through dense work arrays of n x w entries, and
    with w = 1 it pivots on the same rows and stores the same entries,
    while on the disk at n = 128, k = 4, Neumann, its peak memory above
    the matrix falls from 65.4 to 51.0 MB and its time by 9%.
    The factors differ from w = 20 in rounding only, since the updates
    are summed in another order.

    The contract is on eta = ||F - A x|| / (||A|| ||x|| + ||F||) in the
    infinity norm, Rigal and Gaches' normwise backward error: x solves
    exactly a system whose matrix and right-hand side are within a
    relative eta of A and F.  The relative residual ||F - A x|| / ||F||
    is no such measure: it grows like ||A|| ||x|| / ||F||, that is like
    h^-2, on finer meshes, where a stable solve leaves it above any fixed
    bound.  `solve` proves eta <= BACKWARD_ERROR_TOL from the plain double
    residual and its rounding error bound, one SpMV; only when that fails
    does it take the residual with `compensated_residual` and refine x
    with the same factorization.  Refinement stops, as LAPACK's xGERFS
    does, once a step fails to halve eta, or after 10 steps; SolverError
    then reports the history of eta and the componentwise backward error
    max |r| / (|A||x| + |F|).  Each call logs one DEBUG record with the
    size, nnz(L+U), the refinement steps and the history of eta; the
    record also carries them as the attributes `dofs`, `nnz_a` (stored
    entries of A), `nnz_lu`, `refinement_steps`, `backward_errors` (the
    history of eta, floats) and `bound`, the proven bound on the exact
    eta of the x returned.
    """
    A = system.A.tocsr()
    F = np.asarray(system.F, dtype=float)
    # ||A|| allocates |A.data|, so it is taken before the factors exist.
    norm_a = _norm_inf(A)
    lu = _splu(A)
    x = lu.solve(F, trans="T")
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite entries")
    history = []
    for step in range(MAX_REFINEMENT_STEPS + 1):
        if step:
            x = x + lu.solve(r, trans="T")
        r, eta, bound = _residual(A, x, F, norm_a)
        history.append(eta)
        if bound <= BACKWARD_ERROR_TOL or (step and not eta < 0.5 * history[-2]):
            break
    diagnostics = (A.shape[0], lu.nnz, step, ", ".join(f"{h:.3e}" for h in history))
    log.debug(
        "solve: " + _DIAGNOSTICS,
        *diagnostics,
        extra=dict(
            dofs=A.shape[0],
            nnz_a=A.nnz,
            nnz_lu=lu.nnz,
            refinement_steps=step,
            backward_errors=history,
            bound=bound,
        ),
    )
    if bound > BACKWARD_ERROR_TOL:
        raise SolverError(
            f"backward error {bound:.3e} exceeds {BACKWARD_ERROR_TOL:g}: "
            + _DIAGNOSTICS % diagnostics
            + f"; componentwise backward error {_backward_error(A, x, F, r):.1e}"
        )
    return x


def _abs(A):
    return sparse.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)


def _norm_inf(A):
    """||A|| in the infinity norm, the largest row sum of |A|: the sums of
    |A.data| over the CSR rows, an empty row counting as 0."""
    starts = A.indptr[:-1][np.diff(A.indptr) > 0]
    if not len(starts):
        return 0.0
    return float(np.add.reduceat(np.abs(A.data), starts).max())


def _backward_error(A, x, F, r):
    """Oettli and Prager's componentwise backward error max |r| / (|A||x| + |F|);
    a row whose denominator is zero has a zero residual and counts as zero."""
    denominator = _abs(A) @ np.abs(x) + np.abs(F)
    return float(np.max(np.abs(r) / np.where(denominator > 0, denominator, 1.0), initial=0.0))


def _residual(A, x, F, norm_a):
    """F - A x, its normwise backward error eta and a proven bound on the
    exact eta: from the plain double residual when that bound is at most
    BACKWARD_ERROR_TOL, else from `compensated_residual`."""
    longest = int(np.diff(A.indptr).max(initial=0))
    scale = norm_a * np.max(np.abs(x), initial=0.0) + np.max(np.abs(F), initial=0.0) or 1.0
    # Componentwise, |fl(F - A x) - (F - A x)| <= gamma_{n_i + 1}
    # (|F| + |A| |x|) for a row of n_i entries (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, sec. 3.1), and
    # || |F| + |A| |x| || <= scale: the exact eta is at most the computed
    # one plus gamma_{N + 1} for rows of at most N entries.  The factor
    # 1 + eps (N + 4) covers, in units u = eps / 2, the rounding of ||A||
    # (N - 1 additions), of scale and of eta, and the relative error 2u
    # of `compensated_residual`.  With eps in place of u both terms are
    # twice what they cover, which absorbs gamma's denominator and the
    # rounding of the bound itself.
    r = F - A @ x
    eta = float(np.max(np.abs(r), initial=0.0) / scale)
    bound = eta * (1.0 + _EPS * (longest + 4)) + _EPS * (longest + 1)
    if bound <= BACKWARD_ERROR_TOL:
        return r, eta, bound
    # The compensated r_i is off by at most 2^-52 |exact r_i| plus
    # n_i^3 2^-100 max_j |a_ij x_j| (see `compensated_residual`).
    r = compensated_residual(A, x, F)
    eta = float(np.max(np.abs(r), initial=0.0) / scale)
    return r, eta, eta * (1.0 + _EPS * (longest + 4)) + longest**3 * 2.0**-100


def _splu(A):
    """The one SuperLU factorization, of A^T for a CSR matrix A: SuperLU
    reads the CSC view `A.T` in place, and `lu.solve(b, trans="T")`
    solves A x = b.  `solve` explains the settings, among them the
    single-column panels (`panel_size=1`) that keep SuperLU's dense work
    arrays at one column of n entries."""
    try:
        return spla.splu(
            A.T,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            relax=1,
            panel_size=1,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc


def _split(a, high, low):
    """Veltkamp's split of `a` into `high` + `low`, written in place."""
    np.multiply(_SPLITTER, a, out=low)
    np.subtract(low, a, out=high)
    np.subtract(low, high, out=high)
    np.subtract(a, high, out=low)


def compensated_residual(A, x, F):
    """F - A x for a CSR matrix A, with each row summed error-free.

    Each product a_ij x_j is split exactly into p + e (Dekker's TwoProduct,
    with Veltkamp's splitting).  The p of a row are split once more against
    a power of two sigma_i >= 2^m max_j |p_ij|, 2^m above the row length:
    the high parts fl((sigma_i + p) - sigma_i) are multiples of one unit
    and add up exactly in any order, and what is left is small enough to
    add in plain double arithmetic (the error-free vector transformation of
    Rump, Ogita & Oishi, SIAM J. Sci. Comput. 2008).  For a row of n_i
    entries the result is within a relative 2^-52 of the exact residual
    plus n_i^3 2^-100 max_j |a_ij x_j|, where plain double arithmetic can
    be off by n_i 2^-53 sum_j |a_ij x_j|.  That is double-double accuracy,
    as with Ogita, Rump & Oishi's Dot2, so refinement does not stall at the
    rounding floor of A @ x (Carson & Higham, SIAM J. Sci. Comput. 2018).
    No extended-precision type is used.
    """
    indptr, n = A.indptr, A.shape[0]
    lengths = np.diff(indptr)
    m = int(lengths.max(initial=0)).bit_length()
    cuts = np.searchsorted(indptr, np.arange(_RESIDUAL_BLOCK, indptr[-1], _RESIDUAL_BLOCK))
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    # One set of block temporaries for the whole call, each ufunc writing
    # into them (`out=`): the same operations as fresh arrays, in the same
    # order, so the same r.
    buffers = np.empty((8, int(np.diff(indptr[bounds]).max(initial=0))))
    r = np.array(F, dtype=float)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        lo, hi = indptr[r0], indptr[r1]
        if hi == lo:
            continue
        p, e, t, xc, a1, a2, x1, x2 = buffers[:, : hi - lo]
        a = A.data[lo:hi]
        np.take(x, A.indices[lo:hi], out=xc)
        np.multiply(a, xc, out=p)
        _split(a, a1, a2)
        _split(xc, x1, x2)
        # e = a2 x2 - (((p - a1 x1) - a2 x1) - a1 x2), the error of p.
        np.subtract(p, np.multiply(a1, x1, out=e), out=e)
        np.subtract(e, np.multiply(a2, x1, out=t), out=e)
        np.subtract(e, np.multiply(a1, x2, out=t), out=e)
        np.subtract(np.multiply(a2, x2, out=t), e, out=e)
        rows = np.flatnonzero(lengths[r0:r1]) + r0
        starts = indptr[rows] - lo
        sigma = np.maximum.reduceat(np.abs(p, out=t), starts)
        sigma = np.repeat(np.ldexp(1.0, np.frexp(sigma)[1] + m), lengths[rows])
        high = np.subtract(np.add(sigma, p, out=t), sigma, out=t)
        r[rows] -= np.add.reduceat(high, starts)
        r[rows] -= np.add.reduceat(np.add(np.subtract(p, high, out=p), e, out=p), starts)
    return r


def error_norms(space, u_h, exact_u, exact_grad):
    """Broken L2 and H1 errors against a globally defined exact solution.

    Both are element-wise quadratures over the polygonal domain, at the
    space's `quad_points`; the H1 norm includes the L2 part.  The values
    and reference gradients of u_h at those points are two GEMMs of the
    element coefficients (n_elements, n_b) with the basis tables, in blocks
    of `fem._GEMM_ROWS` elements (see there for why); the gradients are
    then mapped by each element's Binv.  AssemblyError names the first
    element where the exact value or gradient is not finite.
    """
    if exact_u is None or exact_grad is None:
        raise ConfigurationError("error norms need the exact solution and gradient")
    x, w = space.quad_points, space.quad_weights
    local = np.asarray(u_h)[space.cell_dofs]  # (m, nb)
    nq, nb = space.quad_values.shape
    uh_vals = _chunked_matmul(local, space.quad_values.T)
    ref_grads = np.swapaxes(space.quad_grads, 0, 1).reshape(nb, 2 * nq)
    uh_grads = _chunked_matmul(local, ref_grads).reshape(-1, nq, 2) @ space.Binv

    u_vals = exact_u(x[..., 0], x[..., 1])
    gx, gy = exact_grad(x[..., 0], x[..., 1])
    finite = np.broadcast_to(np.isfinite(u_vals) & np.isfinite(gx) & np.isfinite(gy), w.shape)
    if not np.all(finite):
        element = int(np.argmin(finite.all(axis=1)))
        raise AssemblyError("non-finite exact solution value or gradient", element=element)
    l2_sq = float(np.sum(w * (u_vals - uh_vals) ** 2))
    grad_sq = float(
        np.sum(w * ((gx - uh_grads[..., 0]) ** 2 + (gy - uh_grads[..., 1]) ** 2))
    )
    return np.sqrt(l2_sq), np.sqrt(l2_sq + grad_sq)


def fit_rate(points):
    """Least-squares slope of log(error) vs log(h), plus pairwise rates.

    ValueError for fewer than two points, repeated h, or an h or error
    that is not positive and finite (NaN included).
    """
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 2:
        raise ValueError("need at least two (h, error) points")
    h = np.array([p[0] for p in pts])
    e = np.array([p[1] for p in pts])
    if not np.all((h > 0) & (e > 0) & np.isfinite(h) & np.isfinite(e)):
        raise ValueError(f"h and error values must be positive and finite, got {pts}")
    if len(np.unique(h)) != len(h):
        raise ValueError("h values must be distinct")
    slope = float(np.polyfit(np.log(h), np.log(e), 1)[0])
    pairwise = [
        float(np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1]))
        for i in range(len(h) - 1)
    ]
    return slope, pairwise


@dataclass
class LevelResult:
    level: int
    h: float
    delta_h: float
    dofs: int
    l2_error: float
    h1_error: float


@dataclass
class ConvergenceReport:
    """Per-refinement errors for one method/degree, with fitted slopes."""

    method: str
    degree: int
    levels: list = field(default_factory=list)

    def add(self, result):
        if self.levels and not result.h < self.levels[-1].h:
            raise ValueError("mesh size must decrease across levels")
        self.levels.append(result)

    def _slope(self, errors, last=None):
        lv = self.levels if last is None else self.levels[-last:]
        er = errors[-len(lv):]
        return fit_rate([(l.h, e) for l, e in zip(lv, er)])[0]

    def l2_slope(self, last=None):
        return self._slope([l.l2_error for l in self.levels], last)

    def h1_slope(self, last=None):
        return self._slope([l.h1_error for l in self.levels], last)

    def pairwise_rates(self):
        """Per-level (l2, h1) rates; None for the coarsest level."""
        if len(self.levels) < 2:
            return [(None, None)]
        l2 = fit_rate([(l.h, l.l2_error) for l in self.levels])[1]
        h1 = fit_rate([(l.h, l.h1_error) for l in self.levels])[1]
        return [(None, None), *zip(l2, h1)]


def patch_test(space, geometry, assemble, make_problem, rng):
    """Solve for a random polynomial of the space's degree and report
    whether it is reproduced to solver accuracy: (H1 error within
    PATCH_TOL, H1 error).

    `assemble` maps (space, problem, geometry) to a linear system;
    `make_problem` maps a random polynomial to a ProblemSpec.
    """
    from .problems import random_polynomial

    poly = random_polynomial(space.degree, rng)
    problem = make_problem(poly)
    system = assemble(space, problem, geometry)
    u_h = solve(system)
    l2, h1 = error_norms(space, u_h, problem.exact_u, problem.exact_grad)
    scale = max(1.0, np.abs(poly.coeffs).sum())
    return h1 <= PATCH_TOL * scale, h1
