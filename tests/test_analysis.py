"""Tests for the linear solver, error norms, rate fitting, and reports."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given
from hypothesis import strategies as st

from pefem.analysis import (
    BACKWARD_ERROR_TOL,
    ConvergenceReport,
    LevelResult,
    _norm_inf,
    _residual,
    _splu,
    compensated_residual,
    error_norms,
    fit_rate,
    solve,
)
from pefem.errors import AssemblyError, ConfigurationError, SingularSystemError, SolverError
from pefem.fem import FeSpace
from pefem.forms import LinearSystem
from pefem.mesh import generate_square_mesh
from test_edge_table import PROPERTY

EPS = np.finfo(float).eps


def _system(A, F):
    return LinearSystem(sparse.csr_matrix(A), np.asarray(F, dtype=float))


def _solve_records(caplog, system):
    with caplog.at_level(logging.DEBUG, logger="pefem.analysis"):
        x = solve(system)
    return x, [r for r in caplog.records if r.name == "pefem.analysis"]


def solve_with_record(system):
    """`solve`'s x and its DEBUG record, without pytest's caplog fixture
    (which a hypothesis test cannot take)."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    logger = logging.getLogger("pefem.analysis")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        x = solve(system)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    [record] = records
    return x, record


def exact_backward_error(A, x, F):
    """||F - A x|| / (||A|| ||x|| + ||F||) in the infinity norm, from
    `compensated_residual` and row sums of |A| taken with `math.fsum`."""
    A = sparse.csr_matrix(A)
    r = compensated_residual(A, x, F)
    rows = zip(A.indptr[:-1], A.indptr[1:])
    norm_a = max((math.fsum(np.abs(A.data[lo:hi])) for lo, hi in rows), default=0.0)
    return np.max(np.abs(r)) / (norm_a * np.max(np.abs(x)) + np.max(np.abs(F)))


def _pivot_growth_matrix(n):
    """Wilkinson's matrix (1 on the diagonal, -1 below it, 1 in the last
    column) ordered so that `_splu` factors it as it stands: elimination
    doubles the last column at each step, so U grows to 2^(n - 1), though
    cond(W) is about n.  Its W + W^T is dense, so SuperLU's ordering
    depends on the pattern alone: P is W with that ordering undone, and
    the diagonal pivots meet the 0.1 threshold.  `_splu` factors the
    transpose of its argument, so A = P^T makes it factor P, that is W."""
    W = np.eye(n) - np.tril(np.ones((n, n)), -1)
    W[:, -1] = 1.0
    order = np.argsort(_splu(sparse.csr_matrix(W.T)).perm_c)
    P = np.empty_like(W)
    P[np.ix_(order, order)] = W
    return P.T


def _random_rows(rng, n=30, density=0.3):
    """A random sparse matrix with entries over six decades, a vector x,
    and F = fl(A x) with a few small perturbations: rows of F - A x
    cancel to far below the size of their terms."""
    A = sparse.random(n, n, density=density, random_state=rng, format="csr")
    A.data = rng.standard_normal(A.nnz) * 10.0 ** rng.integers(-3, 4, A.nnz)
    x = rng.standard_normal(n)
    F = A @ x
    F[::3] += 1e-12 * rng.standard_normal(len(F[::3]))
    return A, x, F


class TestSolve:
    def test_identity(self):
        F = np.array([3.0, -1.0, 2.0])
        x = solve(_system(np.eye(3), F))
        assert np.array_equal(x, F)

    def test_hand_solved_2x2(self):
        x = solve(_system([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_spd_meets_residual_contract(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((50, 50))
        A = M.T @ M + np.eye(50)
        F = rng.standard_normal(50)
        x = solve(_system(A, F))
        residual = np.linalg.norm(A @ x - F) / np.linalg.norm(F)
        assert residual <= 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_singular_matrix(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        with pytest.raises(SingularSystemError):
            solve(_system(A, [1.0, 1.0, 1.0]))

    def test_compensated_residual_matches_exact_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A, x, F = _random_rows(rng)
            r = compensated_residual(A, x, F)
            plain = F - A @ x
            misses = 0
            for i in range(A.shape[0]):
                lo, hi = A.indptr[i], A.indptr[i + 1]
                terms = [Fraction(a) * Fraction(x[j]) for a, j in zip(A.data[lo:hi], A.indices[lo:hi])]
                exact = Fraction(F[i]) - sum(terms)
                # The documented bound, far below double arithmetic's.
                largest = max((abs(t) for t in terms), default=0)
                bound = Fraction(2.0**-52) * abs(exact) + (hi - lo) ** 3 * Fraction(2.0**-100) * largest
                assert abs(Fraction(r[i]) - exact) <= bound
                misses += abs(Fraction(plain[i]) - exact) > bound
            assert misses > 0

    def test_norm_is_the_largest_absolute_row_sum(self):
        # Empty rows first, inside and last: each sums to 0.
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.6)
        dense[[0, 3, 6]] = 0.0
        dense[1, 0] = -40.0
        A = sparse.csr_matrix(dense)
        assert np.diff(A.indptr)[[0, 3, 6]].tolist() == [0, 0, 0]
        assert _norm_inf(A) == pytest.approx(abs(A).sum(axis=1).max(), rel=4 * EPS)
        assert _norm_inf(sparse.csr_matrix((3, 3))) == 0.0

    def test_plain_residual_only_where_its_error_bound_allows(self):
        rng = np.random.default_rng(4)
        A, x, F = _random_rows(rng)
        longest = np.diff(A.indptr).max()
        # F - A x cancels to 1e-12 of its terms, yet eta is far below the
        # contract, and rows of at most 30 entries add at most eps 31 to
        # it: the plain residual proves the contract.
        r, eta, bound = _residual(A, x, F, _norm_inf(A))
        assert np.array_equal(r, F - A @ x)
        assert bound == eta * (1.0 + EPS * (longest + 4)) + EPS * (longest + 1)
        assert bound <= BACKWARD_ERROR_TOL
        # A residual above the contract: the compensated one is taken.
        far = F + 1e-9 * np.abs(F).max()
        r, eta, bound = _residual(A, x, far, _norm_inf(A))
        assert np.array_equal(r, compensated_residual(A, x, far))
        assert bound > BACKWARD_ERROR_TOL
        # Rows of 500 entries: their rounding slack, eps 501, is itself
        # above the contract, however small eta is.
        A = sparse.csr_matrix(rng.standard_normal((4, 500)))
        x = rng.standard_normal(500)
        F = A @ x
        r, eta, bound = _residual(A, x, F, _norm_inf(A))
        assert np.array_equal(r, compensated_residual(A, x, F))
        assert eta <= 4 * EPS
        assert bound <= BACKWARD_ERROR_TOL

    def test_refinement_recovers_from_pivot_growth(self, caplog):
        # U grows to 2^31, and the first solve misses the contract by far.
        n = 32
        A = _pivot_growth_matrix(n)
        assert np.abs(_splu(sparse.csr_matrix(A)).U.data).max() == 2.0 ** (n - 1)
        system = _system(A, A @ np.random.default_rng(1).standard_normal(n))
        x, records = _solve_records(caplog, system)
        residuals = [float(h) for h in records[0].args[3].split(", ")]
        assert residuals[0] > 100 * BACKWARD_ERROR_TOL
        assert records[0].args[2] == len(residuals) - 1 >= 1
        exact = compensated_residual(system.A, x, system.F)
        assert np.linalg.norm(exact) <= 1e-12 * np.linalg.norm(system.F)

    def test_logs_one_diagnostics_record(self, caplog):
        A = 4.0 * np.eye(4) + 1.0
        _, records = _solve_records(caplog, _system(A, A @ np.arange(1.0, 5.0)))
        assert len(records) == 1
        record = records[0]
        assert record.levelno == logging.DEBUG
        n, lu_nnz, steps, residuals = record.args
        assert n == 4
        assert lu_nnz == 20  # a dense 4 x 4 matrix: 10 entries in each of L, U
        assert len(residuals.split(", ")) == steps + 1
        assert float(residuals.split(", ")[-1]) <= BACKWARD_ERROR_TOL
        assert f"{n} dofs, nnz(L+U) {lu_nnz}, {steps} refinement steps" in record.getMessage()
        # The same numbers as structured fields, the history as floats.
        assert (record.dofs, record.nnz_a, record.nnz_lu) == (4, 16, 20)
        assert record.refinement_steps == steps
        assert len(record.backward_errors) == steps + 1
        assert all(type(h) is float for h in record.backward_errors)
        assert residuals == ", ".join(f"{h:.3e}" for h in record.backward_errors)
        # The proven bound: the last eta plus the plain residual's slack
        # for rows of 4 entries.
        eta = record.backward_errors[-1]
        assert record.bound == eta * (1.0 + 8 * EPS) + 5 * EPS <= BACKWARD_ERROR_TOL

    def test_solver_error_carries_sizes_and_history(self, caplog):
        # At n = 100, U grows to 2^99: each solve with the factors is off
        # by far more than x, and refinement stalls far above the contract.
        # (A Hilbert matrix of order 10 meets the contract at once; the
        # pivot growth of order 60 is still refined to 1e-17.)
        n = 100
        A = _pivot_growth_matrix(n)
        with pytest.raises(SolverError) as info:
            _solve_records(caplog, _system(A, A @ np.random.default_rng(1).standard_normal(n)))
        message = str(info.value)
        assert message.startswith("backward error ")
        assert "exceeds 1e-13: 100 dofs, nnz(L+U) " in message
        steps = int(message.split(" refinement steps")[0].rsplit(", ", 1)[1])
        history = message.split("backward errors ")[1].split(";")[0]
        etas = [float(h) for h in history.split(", ")]
        assert len(etas) == steps + 1 >= 2
        # Refinement stopped because a step failed to halve eta.
        assert not etas[-1] < 0.5 * etas[-2]
        assert etas[-1] > BACKWARD_ERROR_TOL
        assert "componentwise backward error" in message
        assert len([r for r in caplog.records if r.name == "pefem.analysis"]) == 1

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_refinement_stops_at_the_rounding_floor(self, caplog, n):
        # F = A x is O(h^2) against |A||x| = O(1): rounding x to double
        # alone leaves a relative residual above 1e-12, which no step can
        # remove.  The backward error is a few units of roundoff, which the
        # plain residual proves for rows of 3 entries: no step is taken.
        off = -np.ones(n - 1)
        A = sparse.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1], format="csr")
        F = A @ np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        x, [record] = _solve_records(caplog, _system(A, F))
        assert record.refinement_steps == 0
        assert np.linalg.norm(compensated_residual(A, x, F)) > 1e-12 * np.linalg.norm(F)
        assert exact_backward_error(A, x, F) <= record.bound <= 8 * EPS

    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 7, 30, 460]), st.floats(0.05, 1.0))
    def test_proven_bound_holds_on_random_sparse_systems(self, seed, n, density):
        # Entries over six decades, rows that cancel to 1e-12 of their
        # terms, and at n = 460 rows long enough that only the compensated
        # residual proves the contract.
        rng = np.random.default_rng(seed)
        A, x, F = _random_rows(rng, n, density)
        A = (A + sparse.diags(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n))).tocsr()
        F = A @ x
        F[::3] += 1e-12 * rng.standard_normal(len(F[::3]))
        try:
            x, record = solve_with_record(_system(A, F))
        except (SingularSystemError, SolverError):
            return
        assert exact_backward_error(A, x, F) <= record.bound <= BACKWARD_ERROR_TOL

    def test_pivots_off_zero_and_tiny_diagonal_entries(self):
        # A diagonally dominant matrix with its rows reversed, plus 1e-9 on
        # every other diagonal entry: the large entries sit on the
        # anti-diagonal, and all diagonal entries but the middle two are 0
        # or 1e-9.  SuperLU must pivot off the diagonal in nearly every
        # column; with a threshold of 0 it would keep the 1e-9 pivots
        # (29 of 50 off).
        rng = np.random.default_rng(8)
        n = 50
        M = sparse.random(n, n, density=0.1, random_state=rng) + 4.0 * sparse.eye(n)
        A = sparse.csr_matrix(sparse.csr_matrix(M)[::-1] + sparse.diags(np.arange(n) % 2 * 1e-9))
        assert np.count_nonzero(np.abs(A.diagonal()) > 1e-9) <= 2
        lu = _splu(A)
        assert np.count_nonzero(lu.perm_r != lu.perm_c) >= 0.9 * n
        F = A @ rng.standard_normal(n)
        x = solve(_system(A, F))
        assert np.linalg.norm(compensated_residual(A, x, F)) <= 1e-12 * np.linalg.norm(F)


class TestErrorNorms:
    def test_zero_against_interpolated_polynomial(self):
        mesh = generate_square_mesh(3)
        space = FeSpace(mesh, 2)
        exact = lambda x, y: x**2 - x * y
        grad = lambda x, y: (2 * x - y, -x)
        coeffs = exact(space.dof_coords[:, 0], space.dof_coords[:, 1])
        l2, h1 = error_norms(space, coeffs, exact, grad)
        assert l2 <= 1e-14
        assert h1 <= 1e-13

    def test_constant_error_gives_sqrt_area(self):
        # u_h = 0 vs exact u = 2 on the unit square: L2 error = 2.
        mesh = generate_square_mesh(2)
        space = FeSpace(mesh, 1)
        zero = np.zeros(space.n_dofs)
        l2, h1 = error_norms(
            space,
            zero,
            lambda x, y: 2.0 * np.ones_like(x),
            lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        )
        assert l2 == pytest.approx(2.0, rel=1e-13)
        assert h1 == pytest.approx(2.0, rel=1e-13)

    def test_linear_error_norms(self):
        # u_h = 0 vs u = x on the centered unit square:
        # L2^2 = integral x^2 = 1/12, |u|_1^2 = 1.
        mesh = generate_square_mesh(2)
        space = FeSpace(mesh, 1)
        zero = np.zeros(space.n_dofs)
        l2, h1 = error_norms(
            space,
            zero,
            lambda x, y: x,
            lambda x, y: (np.ones_like(x), np.zeros_like(y)),
        )
        assert l2 == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-12)
        assert h1 == pytest.approx(np.sqrt(1.0 / 12.0 + 1.0), rel=1e-12)

    def test_h1_dominates_l2(self):
        mesh = generate_square_mesh(3)
        space = FeSpace(mesh, 2)
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(space.n_dofs)
        l2, h1 = error_norms(
            space,
            coeffs,
            lambda x, y: np.cos(x) * y,
            lambda x, y: (-np.sin(x) * y, np.cos(x)),
        )
        assert h1 >= l2

    def test_requires_exact_solution(self):
        mesh = generate_square_mesh(1)
        space = FeSpace(mesh, 1)
        with pytest.raises(ConfigurationError):
            error_norms(space, np.zeros(space.n_dofs), None, None)

    def test_non_finite_exact_solution_names_its_element(self):
        space = FeSpace(generate_square_mesh(2), 2)
        zero = np.zeros(space.n_dofs)
        # An exact solution that is NaN on the upper half of the square.
        half_nan = lambda x, y: np.where(y > 0, np.nan, x)
        grad = lambda x, y: (np.ones_like(x), np.zeros_like(y))
        first = int(np.argmax((space.quad_points[..., 1] > 0).any(axis=1)))
        assert first > 0
        with pytest.raises(AssemblyError, match=f"element {first}: non-finite") as exc:
            error_norms(space, zero, half_nan, grad)
        assert exc.value.element == first
        inf_grad = lambda x, y: (np.zeros_like(x), np.where(x > 0.25, np.inf, 1.0))
        with pytest.raises(AssemblyError, match="non-finite exact solution value or gradient"):
            error_norms(space, zero, lambda x, y: x, inf_grad)


class TestFitRate:
    def test_exact_power_law(self):
        h = np.array([0.4, 0.2, 0.1, 0.05])
        slope, pairwise = fit_rate(list(zip(h, 2.0 * h**3)))
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(pairwise, 3.0, atol=1e-12)

    def test_scale_invariance(self):
        h = np.array([0.4, 0.2, 0.1])
        e = np.array([3e-3, 4e-4, 6e-5])
        s1, _ = fit_rate(list(zip(h, e)))
        s2, _ = fit_rate(list(zip(h, 1e6 * e)))
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_published_quadratic_dirichlet_column(self):
        # Regression of log error on log h over a published convergence
        # history must reproduce its stated rate 3.2283.
        h = [0.583095, 0.315543, 0.165152, 0.080322, 0.045221]
        l2 = [6.83996e-04, 8.71107e-05, 1.07759e-05, 1.28123e-06, 1.59731e-07]
        slope, _ = fit_rate(list(zip(h, l2)))
        assert slope == pytest.approx(3.2283, abs=0.05)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1e-3)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1e-3), (0.1, 2e-3)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 1e-3), (-0.05, 1e-4)])
        with pytest.raises(ValueError):
            fit_rate([(0.1, 0.0), (0.05, 1e-4)])
        # NaN fails every comparison: a `<= 0` test alone would pass it.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                fit_rate([(0.1, bad), (0.05, 1e-3), (0.025, 1e-4)])
            with pytest.raises(ValueError, match="positive and finite"):
                fit_rate([(bad, 1e-2), (0.05, 1e-3), (0.025, 1e-4)])


class TestConvergenceReport:
    @staticmethod
    def _level(i, h, l2, h1):
        return LevelResult(level=i, h=h, delta_h=h**2 / 8, dofs=100 * (i + 1), l2_error=l2, h1_error=h1)

    def test_requires_decreasing_h(self):
        report = ConvergenceReport(method="pefem-dirichlet-weak", degree=2)
        report.add(self._level(0, 0.4, 1e-3, 1e-2))
        with pytest.raises(ValueError):
            report.add(self._level(1, 0.4, 1e-4, 1e-3))
        with pytest.raises(ValueError):
            report.add(self._level(1, np.nan, 1e-4, 1e-3))
        assert len(report.levels) == 1

    def test_slopes_and_pairwise(self):
        report = ConvergenceReport(method="pefem-neumann", degree=2)
        for i, h in enumerate([0.4, 0.2, 0.1, 0.05]):
            report.add(self._level(i, h, h**3, h**2))
        assert report.l2_slope() == pytest.approx(3.0, abs=1e-10)
        assert report.h1_slope() == pytest.approx(2.0, abs=1e-10)
        assert report.l2_slope(last=3) == pytest.approx(3.0, abs=1e-10)
        rates = report.pairwise_rates()
        assert rates[0] == (None, None)
        assert rates[1][0] == pytest.approx(3.0, abs=1e-10)
        assert rates[1][1] == pytest.approx(2.0, abs=1e-10)
