"""Curvature blocks, assembled representations, and their relations."""

import numpy as np
import pytest
from hypothesis import assume, event, given, note, settings
from hypothesis import strategies as st

from crcalc import (
    AssembledHessians,
    CrcalcError,
    DimensionError,
    HessianQuad,
    NonFiniteEvaluation,
    PolynomialParams,
    QStrategy,
    RelationViolation,
    ScalarField,
    SingularQ,
    SymmetryViolation,
    assemble,
    check_minimum,
    cogradients,
    complex_from_real,
    descent_step,
    hessian_quad,
    is_admissible_matrix,
    is_admissible_vector,
    loss_field,
    minimize,
    polynomial_field,
    second_order_predict,
)
from crcalc import optim
from crcalc.hessian import FD_SECOND_STEP
from ._oracles import (
    ConvexQuartic,
    dense_j,
    dense_s,
    nested_fd_blocks,
    quartic_norm_field,
    random_complex_vector,
    random_quadratic_loss,
    real_fd_hessian,
    schur_newton_update,
    z_to_r,
)
from .test_lsq import nonlinear_problems

RNG = np.random.default_rng


def random_quad(rng, n):
    _, quad = random_quadratic_loss(rng, n)
    return quad


class TestFrozenSecondDerivatives:
    def test_modulus_squared_blocks(self):
        field = ScalarField(lambda z: float(np.real(np.conj(z) @ z)), name="|z|^2")
        quad = hessian_quad(field, np.array([0.7 - 0.4j]))
        np.testing.assert_allclose(quad.hzz, [[1.0]], atol=1e-6)
        np.testing.assert_allclose(quad.hzbz, [[0.0]], atol=1e-6)

    def test_real_square_blocks(self):
        field = ScalarField(lambda z: float(np.real(z[0] ** 2)), name="Re z^2")
        quad = hessian_quad(field, np.array([0.3 + 0.2j]))
        np.testing.assert_allclose(quad.hzz, [[0.0]], atol=1e-6)
        np.testing.assert_allclose(quad.hzbz, [[1.0]], atol=1e-6)

    def test_quartic_blocks_match_hand_formula(self):
        plain = quartic_norm_field()
        frozen = quartic_norm_field(with_analytic=True)
        z = np.array([0.6 + 0.1j, -0.2 + 0.5j])
        fd = hessian_quad(plain, z)
        exact = frozen.hessian_fn(z)
        assert np.abs(fd.hzz - exact.hzz).max() <= 1e-5
        assert np.abs(fd.hzbz - exact.hzbz).max() <= 1e-5

    def test_analytic_path_returns_exact_blocks(self):
        rng = RNG(60)
        field, quad = random_quadratic_loss(rng, 3)
        got = hessian_quad(field, random_complex_vector(rng, 3))
        np.testing.assert_allclose(got.hzz, quad.hzz, atol=1e-14)
        np.testing.assert_allclose(got.hzbz, quad.hzbz, atol=1e-14)

    def test_differenced_blocks_on_random_quadratics(self):
        rng = RNG(61)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            field, quad = random_quadratic_loss(rng, n)
            plain = ScalarField(field.fn, name="plain quadratic")
            got = hessian_quad(plain, random_complex_vector(rng, n))
            scale = max(1.0, float(np.abs(quad.hzz).max()))
            assert np.abs(got.hzz - quad.hzz).max() <= 1e-5 * scale
            assert np.abs(got.hzbz - quad.hzbz).max() <= 1e-5 * scale

    def test_differenced_path_differences_one_row(self):
        # Only (df/dz)^H is differenced: 4n row evaluations, the other
        # two blocks follow by conjugation.
        rng = RNG(62)
        n = 3
        field, quad = random_quadratic_loss(rng, n)
        calls = []

        def counted(z):
            calls.append(1)
            return field.cogradient_fn(z)

        rows_only = ScalarField(field.fn, cogradient_fn=counted, name="analytic rows only")
        got = hessian_quad(rows_only, random_complex_vector(rng, n))
        assert len(calls) == 4 * n
        assert np.abs(got.hzz - quad.hzz).max() <= 1e-6
        assert np.abs(got.hzbz - quad.hzbz).max() <= 1e-6

    def test_values_only_path_differences_the_loss(self):
        # Neither rows nor curvature are analytic: the real Hessian is
        # differenced from 4n^2 + 2n + 1 loss values, symmetric by
        # construction, so nothing is left to symmetrize.
        rng = RNG(63)
        n = 3
        quartic = quartic_norm_field()
        calls = []

        def counted(z):
            calls.append(1)
            return quartic.fn(z)

        got = hessian_quad(ScalarField(counted, name="values only"), random_complex_vector(rng, n))
        assert len(calls) == 4 * n**2 + 2 * n + 1
        assert got.presym_residual == 0.0
        assert got.invariant_residual() == 0.0


EPS = float(np.finfo(float).eps)


def stencil_bound(z, fourth: float, value_error: float, value: float) -> float:
    """Entrywise bound on the values-only blocks' error, from h^2 and rounding.

    With h_i = eps**(1/4) max(1, |r_i|), the 3-point and seven-point
    stencils miss a fourth partial bounded by ``fourth`` by at most
    (7/12) h_max^2 ``fourth`` (the mixed stencil's h_i^2/6 + h_i h_j/4 +
    h_j^2/6; exact for a quartic, whose Taylor series ends there).  A
    stencil's weights sum to 8 in magnitude over 2 h_i h_j, so a value
    error ``value_error`` costs 4 ``value_error`` / h_min^2, and forming
    the sums of values near ``value`` another 32 eps |value| / h_min^2.
    A top block entry is a quarter of four Hessian entries, so it is off
    by at most what one Hessian entry is.
    """
    r = z_to_r(z)
    h = FD_SECOND_STEP * np.maximum(1.0, np.abs(r))
    truncation = 7.0 / 12.0 * h.max() ** 2 * fourth
    rounding = (4.0 * value_error + 32.0 * EPS * abs(value)) / h.min() ** 2
    return truncation + rounding


def quadratic_value_error(conv: ConvexQuartic, z) -> tuple[float, float]:
    """q at z and a bound on its evaluation error.

    q = u^H P u + Re(u^T D u) sums about 2n + 4 rounded operations per
    term of |u|^T |P| |u| + |u|^T |D| |u|.
    """
    n = z.shape[0]
    u = np.abs(z - conv.center)
    terms = float(u @ np.abs(conv.p) @ u + u @ np.abs(conv.d) @ u)
    q = conv.q_and_row(z)[0]
    return q, (2 * n + 4) * EPS * terms + EPS * abs(q)


@st.composite
def convex_cases(draw, sizes=st.integers(1, 8)):
    """A convex quartic and a point within a few units of its center."""
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    n = draw(sizes)
    conv = ConvexQuartic(rng, n)
    return conv, conv.center + random_complex_vector(rng, n, draw(st.sampled_from((0.1, 0.5, 1.0))))


class TestValuesOnlyCurvature:
    """Blocks differenced from loss values against the hand-derived ones."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(convex_cases())
    def test_blocks_of_convex_quartics_within_the_stencil_bound(self, case):
        conv, z = case
        got = hessian_quad(ScalarField(conv.fn, name="values only"), z)
        a, b = conv.blocks(z)
        q, q_error = quadratic_value_error(conv, z)
        # f = q + q^2/4 carries q's error times |1 + q/2|, and two more roundings.
        value = conv.fn(z)
        value_error = q_error * (1.0 + 0.5 * abs(q)) + 2.0 * EPS * abs(value)
        tol = stencil_bound(z, conv.max_fourth_derivative(), value_error, value)
        assert got.presym_residual == 0.0
        assert np.abs(got.hzz - a).max() <= tol
        assert np.abs(got.hzbz - b).max() <= tol

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(convex_cases())
    def test_blocks_of_quadratics_to_rounding(self, case):
        conv, z = case
        q = ScalarField(lambda w: conv.q_and_row(w)[0], name="values-only quadratic")
        got = hessian_quad(q, z)
        value, value_error = quadratic_value_error(conv, z)
        tol = stencil_bound(z, 0.0, value_error, value)
        assert np.abs(got.hzz - conv.p).max() <= tol
        assert np.abs(got.hzbz - np.conj(conv.d)).max() <= tol

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.1, 0.5, 1.0)))
    def test_no_less_accurate_than_differencing_a_differenced_row(self, seed, radius):
        # The benchmark's field size, with the worst error over 16 points:
        # near the center rounding dominates both, and either may win a point.
        rng = RNG(seed)
        conv = ConvexQuartic(rng, 8)
        field = ScalarField(conv.fn, name="values only")
        direct, nested = [], []
        for _ in range(16):
            z = conv.center + random_complex_vector(rng, 8, radius)
            a, b = conv.blocks(z)
            scale = max(np.abs(a).max(), np.abs(b).max())
            got = hessian_quad(field, z)
            nested_a, nested_b = nested_fd_blocks(field, z)
            direct.append(max(np.abs(got.hzz - a).max(), np.abs(got.hzbz - b).max()) / scale)
            nested.append(max(np.abs(nested_a - a).max(), np.abs(nested_b - b).max()) / scale)
        note(f"worst relative error: values only {max(direct):.2e}, nested {max(nested):.2e}")
        assert max(direct) <= max(nested)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(convex_cases(sizes=st.integers(1, 6)))
    def test_newton_converges_as_with_an_analytic_row(self, case):
        conv, z0 = case
        newton = QStrategy("newton")
        values_only = minimize(ScalarField(conv.fn, name="values only"), z0, newton)
        with_row = minimize(ScalarField(conv.fn, cogradient_fn=conv.row, name="analytic row"), z0, newton)
        counts = f"values only {values_only.iterations}, analytic row {with_row.iterations}"
        event("newton iterations", counts)
        note(f"iterations: {counts}")
        assert values_only.converged and with_row.converged
        atol = 1e-6 * max(1.0, np.abs(conv.center).max())
        np.testing.assert_allclose(values_only.z, with_row.z, rtol=0, atol=atol)
        np.testing.assert_allclose(values_only.z, conv.center, rtol=0, atol=atol)

    @pytest.mark.parametrize("probe", [1, 8, 21])
    def test_a_non_finite_probe_is_rejected(self, probe):
        # n = 2 makes 21 probes; the last is the centre.
        calls = []

        def fn(w):
            calls.append(None)
            return float("nan") if len(calls) == probe else float(np.real(np.conj(w) @ w))

        with pytest.raises(NonFiniteEvaluation):
            hessian_quad(ScalarField(fn, name="fails once"), np.array([0.5 + 1j, -1.0 + 0j]))

    def test_values_whose_differences_overflow_are_rejected(self):
        field = ScalarField(lambda w: 1.7e308 * (1.0 - 0.1 * float(np.real(np.conj(w) @ w))), name="near the top")
        with pytest.raises(NonFiniteEvaluation):
            hessian_quad(field, np.array([0.5 + 0.5j]))

    def test_a_batched_field_gets_one_call_per_real_coordinate(self):
        rng = RNG(64)
        n = 4
        conv = ConvexQuartic(rng, n)
        sizes = []

        def fn(w):
            if w.ndim == 1:
                return conv.fn(w)
            sizes.append(w.shape)
            return np.array([conv.fn(row) for row in w])

        z = conv.center + random_complex_vector(rng, n)
        got = hessian_quad(ScalarField(fn, name="batched values", batched=True), z)
        assert len(sizes) == 2 * n
        assert all(rows <= 4 * n and width == n for rows, width in sizes)
        assert sum(rows for rows, _ in sizes) == 4 * n**2 + 2 * n + 1
        row_wise = hessian_quad(ScalarField(conv.fn, name="row-wise values"), z)
        assert got.hzz.tobytes() == row_wise.hzz.tobytes()
        assert got.hzbz.tobytes() == row_wise.hzbz.tobytes()


class TestQuadValidation:
    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError):
            HessianQuad(np.eye(2), np.zeros((2, 3)))

    def test_stores_the_top_pair_and_reads_the_bottom_off_it(self):
        a = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        b = np.array([[0.5j, 1.0], [1.0, -0.5]])
        quad = HessianQuad(a, b)
        np.testing.assert_array_equal(quad.hzzb, np.conj(b))
        np.testing.assert_array_equal(quad.hzbzb, np.conj(a))
        np.testing.assert_array_equal(quad.dense(), np.block([[a, b], [np.conj(b), np.conj(a)]]))
        with pytest.raises(TypeError):
            HessianQuad(a, b, np.conj(b), np.conj(a))

    def test_invariant_residual_reports_block_violations(self):
        quad = HessianQuad(np.array([[1.0 + 0j]]), np.array([[2.0 + 1.0j]]))
        assert quad.invariant_residual() <= 1e-15
        not_hermitian = HessianQuad(np.array([[1.0 + 1.0j]]), np.array([[0.0 + 0j]]))
        assert not_hermitian.invariant_residual() >= 1.0
        not_symmetric = HessianQuad(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not_symmetric.invariant_residual() >= 1.0

    def test_symmetry_violation_from_inconsistent_analytic_blocks(self):
        def rows(z):
            from crcalc import WirtingerPair

            return WirtingerPair(np.conj(z), z)

        def bad_blocks(z):
            # A B that is not symmetric, far past the 1e-8 allowance.
            return HessianQuad(np.eye(2), [[0.0, 0.5], [-0.5, 0.0]])

        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            cogradient_fn=rows,
            hessian_fn=bad_blocks,
            name="inconsistent blocks",
        )
        with pytest.raises(SymmetryViolation):
            hessian_quad(field, np.array([1.0 + 0j, 2.0 + 0j]))

    @pytest.mark.parametrize(
        "blocks",
        [
            lambda z: HessianQuad(np.eye(3), np.zeros((3, 3))),
            lambda z: HessianQuad([[1.0]], [[0.0]]),
        ],
    )
    def test_analytic_blocks_of_the_wrong_size_are_rejected(self, blocks):
        field = ScalarField(lambda z: float(np.real(np.conj(z) @ z)), hessian_fn=blocks, name="wrong size")
        with pytest.raises(DimensionError, match="2 x 2"):
            hessian_quad(field, np.array([1.0 + 0j, 2.0 + 0j]))

    @pytest.mark.parametrize(
        "blocks",
        [
            lambda z: (np.eye(2), np.zeros((2, 2))),
            lambda z: (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)),
            lambda z: np.eye(4),
        ],
        ids=["pair", "four blocks", "array"],
    )
    def test_only_a_hessian_quad_is_accepted(self, blocks):
        field = ScalarField(lambda z: float(np.real(np.conj(z) @ z)), hessian_fn=blocks, name="raw blocks")
        with pytest.raises(DimensionError, match="must return a HessianQuad"):
            hessian_quad(field, np.array([1.0 + 0j, 2.0 + 0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_analytic_blocks_are_rejected(self, bad):
        # A NaN symmetry residual passes the tolerance test, so the
        # blocks must be rejected for being non-finite, not classified.
        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            hessian_fn=lambda z: HessianQuad([[bad]], [[0.0]]),
            name="non-finite curvature",
        )
        with pytest.raises(NonFiniteEvaluation):
            hessian_quad(field, np.array([1.0 + 0j]))
        with pytest.raises(NonFiniteEvaluation):
            assemble(HessianQuad([[bad]], [[0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "B"])
    def test_a_non_finite_entry_in_any_block_is_rejected(self, bad, where):
        # The builtin max keeps an earlier finite residual over a later
        # NaN, so a NaN in B alone is the case to catch.
        raw = {"A": [[1.0]], "B": [[0.5]]}
        raw[where] = [[bad]]
        quad = HessianQuad(raw["A"], raw["B"])
        for check in (HessianQuad.check_invariants, assemble, check_minimum):
            with pytest.raises(NonFiniteEvaluation):
                check(quad)
        field = ScalarField(lambda z: float(np.real(np.conj(z) @ z)), hessian_fn=lambda z: quad)
        with pytest.raises(NonFiniteEvaluation):
            hessian_quad(field, np.array([1.0 + 0j]))


def outcome(fn, *args):
    """What a call gives, for comparing two storages: the bytes of its
    value, or the type of the error it raises."""
    try:
        value = fn(*args)
    except CrcalcError as exc:
        return type(exc)
    if isinstance(value, AssembledHessians):
        return [form.tobytes() for form in (value.hc_complex, value.hc_real, value.hrr)]
    return np.asarray(value).tobytes()


class TestDiagonalStorage:
    """A curvature held as two diagonals and as their n x n blocks gives the same results."""

    def assert_same_results(self, diagonal, blocks):
        assert diagonal.hzz.shape == (diagonal.n,) and blocks.hzz.shape == (diagonal.n,) * 2
        for fn in (HessianQuad.dense, assemble, HessianQuad.check_invariants):
            assert outcome(fn, diagonal) == outcome(fn, blocks)
        assert outcome(check_minimum, diagonal) == outcome(check_minimum, blocks)

    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    def test_a_separable_field_in_both_storages(self, seed, n):
        rng = RNG(seed)
        params = PolynomialParams(
            rng.uniform(-2.0, 2.0, n),
            random_complex_vector(rng, n),
            random_complex_vector(rng, n),
            float(rng.standard_normal()),
        )
        field = polynomial_field(params)
        as_blocks = ScalarField(
            field.fn,
            cogradient_fn=field.cogradient_fn,
            hessian_fn=lambda z: HessianQuad(np.diag(params.quad_diag), np.diag(np.conj(params.conj_diag))),
        )
        z, delta = random_complex_vector(rng, n), random_complex_vector(rng, n)
        self.assert_same_results(hessian_quad(field, z), hessian_quad(as_blocks, z))
        for rep in TestSecondOrderPrediction.REPRESENTATIONS:
            assert outcome(second_order_predict, field, z, delta, rep) == outcome(
                second_order_predict, as_blocks, z, delta, rep
            )

    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from(("valid", "complex a", "nan")))
    def test_random_diagonals_in_both_storages(self, seed, n, kind):
        rng = RNG(seed)
        a = rng.uniform(-2.0, 2.0, n).astype(complex)
        b = random_complex_vector(rng, n)
        k = int(rng.integers(n))
        if kind == "complex a":
            a[k] += 1e-6j
        elif kind == "nan":
            b[k] = np.nan
        self.assert_same_results(HessianQuad(a, b), HessianQuad(np.diag(a), np.diag(b)))

    def test_a_scalar_is_a_length_one_diagonal(self):
        quad = HessianQuad(2.0, 0.5j)
        assert quad.hzz.shape == quad.hzbz.shape == (1,)
        np.testing.assert_array_equal(quad.dense(), [[2.0, 0.5j], [-0.5j, 2.0]])

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.ones(2), np.eye(2)),
            (np.eye(2), np.ones(2)),
            (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
            (np.ones((2, 3)), np.ones((2, 3))),
        ],
        ids=["1-D A, 2-D B", "2-D A, 1-D B", "3-D", "not square"],
    )
    def test_blocks_in_no_storage_are_rejected(self, a, b):
        with pytest.raises(DimensionError):
            HessianQuad(a, b)

    def test_diagonals_of_the_wrong_length_are_rejected(self):
        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            hessian_fn=lambda z: HessianQuad(np.ones(3), np.zeros(3)),
            name="wrong length",
        )
        with pytest.raises(DimensionError, match="2 x 2 or length 2"):
            hessian_quad(field, np.array([1.0 + 0j, 2.0 + 0j]))


FINITE = {"allow_nan": False, "allow_infinity": False}


@st.composite
def exact_top_pairs(draw, largest=1.7e308):
    """An exactly Hermitian A and symmetric B with entries up to ``largest`` in modulus."""
    n = draw(st.integers(1, 4))
    entry = st.complex_numbers(max_magnitude=largest, **FINITE)
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    for j in range(n):
        a[j, j] = draw(st.floats(-largest, largest, **FINITE))
        b[j, j] = draw(entry)
        for k in range(j + 1, n):
            a[j, k] = draw(entry)
            a[k, j] = np.conj(a[j, k])
            b[j, k] = b[k, j] = draw(entry)
    return a, b


class TestFinishingTopPairs:
    """hessian_quad symmetrizes the top pair of an analytic curvature."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(exact_top_pairs())
    def test_exact_blocks_come_back_bit_for_bit(self, pair):
        # No block is summed with its own copy, so entries near the top
        # of the float range do not overflow on the way.
        a, b = pair
        field = ScalarField(lambda z: 0.0, hessian_fn=lambda z: HessianQuad(a, b))
        got = hessian_quad(field, np.zeros(a.shape[0], dtype=complex))
        assert got.hzz.tobytes() == a.tobytes() and got.hzbz.tobytes() == b.tobytes()
        assert got.presym_residual == 0.0


class TestAssembledRelations:
    def test_full_matrix_is_hermitian_and_admissible(self):
        rng = RNG(63)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            built = assemble(random_quad(rng, n))
            hc = built.hc_complex
            assert np.abs(hc - hc.conj().T).max() <= 1e-12
            assert is_admissible_matrix(hc)

    def test_row_swapped_form_matches_dense_product(self):
        rng = RNG(64)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            built = assemble(random_quad(rng, n))
            np.testing.assert_allclose(
                built.hc_real, dense_s(n) @ built.hc_complex, atol=1e-13
            )

    def test_real_form_matches_dense_congruence(self):
        rng = RNG(65)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            built = assemble(random_quad(rng, n))
            j = dense_j(n)
            dense = j.conj().T @ built.hc_complex @ j
            assert np.abs(dense.imag).max() <= 1e-12
            np.testing.assert_allclose(built.hrr, dense.real, atol=1e-12)
            assert built.hrr.dtype.kind == "f"

    def test_eigenvalues_double_between_forms(self):
        rng = RNG(66)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            built = assemble(random_quad(rng, n))
            ev_c = np.sort(np.linalg.eigvalsh(built.hc_complex))
            ev_r = np.sort(np.linalg.eigvalsh(built.hrr))
            np.testing.assert_allclose(ev_r, 2.0 * ev_c, atol=1e-10)

    def test_singular_values_shared_between_complex_forms(self):
        rng = RNG(67)
        built = assemble(random_quad(rng, 4))
        sv_c = np.linalg.svd(built.hc_complex, compute_uv=False)
        sv_s = np.linalg.svd(built.hc_real, compute_uv=False)
        np.testing.assert_allclose(np.sort(sv_c), np.sort(sv_s), atol=1e-10)

    def test_real_form_recovers_complex_form(self):
        rng = RNG(68)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            built = assemble(random_quad(rng, n))
            np.testing.assert_allclose(
                complex_from_real(built.hrr), built.hc_complex, atol=1e-12
            )

    def test_complex_from_real_against_fd_oracle(self):
        # Differentiate a quadratic in stacked real coordinates with the
        # independent oracle, convert, and compare with the frozen blocks.
        rng = RNG(69)
        n = 2
        field, quad = random_quadratic_loss(rng, n)
        z = random_complex_vector(rng, n)
        hrr = real_fd_hessian(lambda r: field(r[:n] + 1j * r[n:]), z_to_r(z))
        hc = complex_from_real(hrr)
        expected = assemble(quad).hc_complex
        assert np.abs(hc - expected).max() <= 1e-5

    def test_assemble_requires_valid_blocks(self):
        quad = HessianQuad(np.array([[1.0 + 1.0j]]), np.array([[0.0 + 0j]]))
        with pytest.raises(RelationViolation):
            assemble(quad)


class TestSecondOrderPrediction:
    REPRESENTATIONS = ("z", "c-complex", "c-real", "r")

    def test_representations_agree(self):
        rng = RNG(70)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            field, _ = random_quadratic_loss(rng, n)
            z = random_complex_vector(rng, n)
            delta = random_complex_vector(rng, n)
            values = [
                second_order_predict(field, z, delta, representation=rep)
                for rep in self.REPRESENTATIONS
            ]
            spread = max(values) - min(values)
            assert spread <= 1e-10 * max(1.0, abs(values[0]))

    def test_exact_on_quadratics(self):
        rng = RNG(71)
        field, _ = random_quadratic_loss(rng, 2)
        z = random_complex_vector(rng, 2)
        delta = random_complex_vector(rng, 2)
        predicted = second_order_predict(field, z, delta)
        assert predicted == pytest.approx(field(z + delta), rel=1e-10, abs=1e-10)

    def test_improves_on_first_order(self):
        field = quartic_norm_field(with_analytic=True)
        z = np.array([1.0 + 0.5j])
        delta = np.array([0.05 - 0.02j])
        actual = field(z + delta)
        second = second_order_predict(field, z, delta)
        from crcalc import first_order_predict

        first = first_order_predict(field, z, delta)
        assert abs(second - actual) < abs(first - actual)

    def test_unknown_representation_rejected(self):
        field = quartic_norm_field(with_analytic=True)
        with pytest.raises(ValueError):
            second_order_predict(field, np.array([1.0 + 0j]), np.array([0.1 + 0j]), representation="polar")


@st.composite
def curvature_fields(draw):
    """A real field with hand-derived derivatives, a point and a step.

    The field is a random separable polynomial or a random quadratic
    loss in n = 1 to 6 unknowns, or the loss of a random nonlinear
    least-squares problem in n = 1 to 4 unknowns under no, a scalar, a
    diagonal or a dense weight, at that problem's point.  Its curvature
    comes from its analytic blocks, from differencing its analytic
    rows, or from differencing differenced rows.
    """
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    source = draw(st.sampled_from(("polynomial", "quadratic", "least squares")))
    z = random_complex_vector(rng, n)
    if source == "polynomial":
        params = PolynomialParams(
            rng.uniform(-2.0, 2.0, n),
            random_complex_vector(rng, n),
            random_complex_vector(rng, n),
            float(rng.standard_normal()),
        )
        field = polynomial_field(params)
    elif source == "quadratic":
        field, _ = random_quadratic_loss(rng, n)
    else:
        problem, z = draw(nonlinear_problems())
        field, n = loss_field(problem), z.shape[0]
    derivatives = draw(st.sampled_from(("analytic", "differenced curvature", "differenced")))
    if derivatives == "differenced curvature":
        field = ScalarField(field.fn, cogradient_fn=field.cogradient_fn, name=derivatives)
    elif derivatives == "differenced":
        field = ScalarField(field.fn, name=derivatives)
    return field, z, random_complex_vector(rng, n)


class TestIdentityProperties:
    """The paper's identities over random fields, points and steps."""

    @settings(derandomize=True, deadline=None)
    @given(curvature_fields())
    def test_blocks_satisfy_their_invariants(self, draw):
        field, z, _ = draw
        quad = hessian_quad(field, z)
        scale = max(1.0, float(np.abs(quad.hzz).max()), float(np.abs(quad.hzbz).max()))
        assert quad.invariant_residual() <= 1e-12 * scale

    @settings(derandomize=True, deadline=None)
    @given(curvature_fields())
    def test_four_representations_agree(self, draw):
        field, z, delta = draw
        values = [
            second_order_predict(field, z, delta, representation=rep)
            for rep in TestSecondOrderPrediction.REPRESENTATIONS
        ]
        assert max(values) - min(values) <= 1e-10 * max(1.0, max(abs(v) for v in values))

    @settings(derandomize=True, deadline=None)
    @given(curvature_fields())
    def test_real_eigenvalues_are_twice_the_complex_ones(self, draw):
        field, z, _ = draw
        built = assemble(hessian_quad(field, z))
        ev_r = np.sort(np.linalg.eigvalsh(built.hrr))
        ev_c = np.sort(np.linalg.eigvalsh(built.hc_complex))
        assert np.abs(ev_r - 2.0 * ev_c).max() <= 1e-10 * max(1.0, float(np.abs(ev_r).max()))

    @settings(derandomize=True, deadline=None)
    @given(curvature_fields())
    def test_newton_update_matches_the_dense_solve(self, draw):
        field, z, _ = draw
        quad = hessian_quad(field, z)
        hc = assemble(quad).hc_complex
        # The update eliminates through the conjugate block, so both it
        # and the full matrix must be safely invertible.
        assume(np.linalg.cond(hc) < 1e6 and np.linalg.cond(quad.blocks()[0]) < 1e6)
        pair = cogradients(field, z)
        rhs = np.concatenate([np.conj(pair.dz), np.conj(pair.dzbar)])
        expected = -np.linalg.solve(hc, rhs)[: z.shape[0]]
        want = schur_newton_update(quad, pair)
        assert np.abs(want - expected).max() <= 1e-8 * max(1.0, float(np.abs(expected).max()))
        got, _ = optim._descent_step(z, pair, (quad.hzz, quad.hzbz), "newton")
        assert np.abs(got - want).max() <= 1e-8 * max(1.0, float(np.abs(want).max()))

    @settings(derandomize=True, deadline=None)
    @given(curvature_fields(), st.sampled_from(("identity", "newton", "quasi_newton")))
    def test_rows_and_steps_are_conjugate_pairs(self, draw, kind):
        field, z, _ = draw
        pair = cogradients(field, z)
        np.testing.assert_array_equal(pair.dzbar, np.conj(pair.dz))
        try:
            delta_c, _ = descent_step(field, z, QStrategy(kind=kind))
        except SingularQ:
            assume(False)
        n = z.shape[0]
        np.testing.assert_array_equal(delta_c[n:], np.conj(delta_c[:n]))
        assert is_admissible_vector(delta_c)
