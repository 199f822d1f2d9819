"""Coordinate stacks, structure matrices, and admissibility."""

import re

import numpy as np
import pytest

from crcalc import (
    ADMISSIBLE_TOL,
    ComplexPoint,
    ConjugateCoordinates,
    DimensionError,
    InadmissibleVector,
    MetricTensor,
    QStrategy,
    RealCoordinates,
    ScalarField,
    SingularMatrix,
    StructureMatrices,
    cogradients_fd,
    complex_from_real,
    from_conjugate,
    hessian_quad,
    is_admissible_matrix,
    is_admissible_vector,
    matrix_residual,
    minimize,
    project_admissible,
    swap,
    swap_rows,
    to_conjugate,
    to_real,
    vector_residual,
    verify_transform_laws,
)
from crcalc.coords import as_complex_vector
from ._oracles import dense_c, dense_j, dense_s, random_complex_matrix, random_complex_vector


class TestRoundTrips:
    def test_frozen_scalar_stack(self):
        p = ComplexPoint(np.array([1.0 + 2.0j]))
        r = to_real(p)
        np.testing.assert_allclose(r.r, [1.0, 2.0])
        c = to_conjugate(p)
        np.testing.assert_allclose(c.c, [1.0 + 2.0j, 1.0 - 2.0j])
        np.testing.assert_allclose(r.r[:1] + 1j * r.r[1:], p.z)
        np.testing.assert_allclose(from_conjugate(c).z, p.z)

    def test_random_round_trips_exact(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5):
            z = random_complex_vector(rng, n)
            p = ComplexPoint(z)
            r = to_real(p).r
            np.testing.assert_array_equal(r[:n] + 1j * r[n:], z)
            back = from_conjugate(to_conjugate(p))
            np.testing.assert_allclose(back.z, z, atol=1e-15)

    def test_conjugate_stack_matches_dense_map(self):
        rng = np.random.default_rng(8)
        n = 4
        z = random_complex_vector(rng, n)
        r = to_real(ComplexPoint(z)).r
        c = to_conjugate(ComplexPoint(z)).c
        np.testing.assert_allclose(c, dense_j(n) @ r, atol=1e-14)
        np.testing.assert_allclose(r, 0.5 * dense_j(n).conj().T @ c, atol=1e-14)

    def test_from_conjugate_rejects_unpaired_vector(self):
        with pytest.raises(InadmissibleVector):
            from_conjugate(np.array([1.0 + 1.0j, 1.0 + 1.0j]))

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionError):
            RealCoordinates(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionError):
            ConjugateCoordinates(np.array([1.0 + 0j, 1.0 - 0j, 2.0]))

    def test_conjugate_coordinates_validate_on_construction(self):
        ConjugateCoordinates(np.array([2.0 + 1.0j, 2.0 - 1.0j]))
        with pytest.raises(InadmissibleVector):
            ConjugateCoordinates(np.array([2.0 + 1.0j, 2.0 + 1.0j]))


class TestStructureMatrices:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_blocks_match_dense_definitions(self, n):
        mats = StructureMatrices(n)
        np.testing.assert_array_equal(mats.J, dense_j(n))
        np.testing.assert_array_equal(mats.S, dense_s(n))
        np.testing.assert_array_equal(mats.C, dense_c(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inverse_identity(self, n):
        j = StructureMatrices(n).J
        residual = np.abs(np.linalg.inv(j) - 0.5 * j.conj().T).max()
        assert residual <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_swap_involution_and_determinant(self, n):
        s = StructureMatrices(n).S
        np.testing.assert_array_equal(s @ s, np.eye(2 * n))
        assert np.linalg.det(s) == pytest.approx((-1.0) ** n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sign_and_identity_factorizations(self, n):
        mats = StructureMatrices(n)
        j, s, c = mats.J, mats.S, mats.C
        assert np.abs(0.5 * j.conj().T @ s @ j - c).max() <= 1e-12
        assert np.abs(0.5 * j.T @ s @ j - np.eye(2 * n)).max() <= 1e-12

    def test_swap_helpers_match_dense_multiplication(self):
        rng = np.random.default_rng(11)
        n = 3
        s = dense_s(n)
        v = random_complex_vector(rng, 2 * n)
        np.testing.assert_allclose(swap(v), s @ v)
        m = random_complex_matrix(rng, 2 * n, 2 * n)
        np.testing.assert_allclose(swap(m), s @ m @ s)
        np.testing.assert_allclose(swap_rows(m), s @ m)


class TestAdmissibility:
    def test_frozen_examples(self):
        good = np.array([[1.0 + 1.0j, 2.0], [2.0, 1.0 - 1.0j]])
        assert is_admissible_matrix(good)
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert not is_admissible_matrix(bad)
        np.testing.assert_allclose(project_admissible(bad), 0.5 * np.eye(2))

    def test_vector_residual_definition(self):
        b = np.array([1.0 + 2.0j, 3.0 - 1.0j])
        assert vector_residual(b) == pytest.approx(np.abs(np.conj(b) - dense_s(1) @ b).max())
        paired = np.array([1.0 + 2.0j, 1.0 - 2.0j])
        assert is_admissible_vector(paired)
        assert vector_residual(paired) == 0.0

    def test_projector_is_idempotent_and_admissible(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = random_complex_matrix(rng, 2 * n, 2 * n)
            pm = project_admissible(m)
            assert is_admissible_matrix(pm)
            assert np.abs(project_admissible(pm) - pm).max() <= 1e-12

    def test_projector_fixed_points_are_exactly_the_admissible_matrices(self):
        rng = np.random.default_rng(24)
        n = 2
        m = random_complex_matrix(rng, 2 * n, 2 * n)
        pm = project_admissible(m)
        np.testing.assert_allclose(project_admissible(pm), pm, atol=1e-14)
        assert np.abs(project_admissible(m) - m).max() > 1e-3

    def test_inverse_of_admissible_is_admissible(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = project_admissible(random_complex_matrix(rng, 2 * n, 2 * n))
            m = m + 3.0 * np.eye(2 * n)
            assert matrix_residual(np.linalg.inv(m)) <= 1e-10

    def test_matrix_residual_matches_dense_definition(self):
        rng = np.random.default_rng(26)
        n = 3
        m = random_complex_matrix(rng, 2 * n, 2 * n)
        s = dense_s(n)
        expected = np.abs(m - s @ np.conj(m) @ s).max()
        assert matrix_residual(m) == pytest.approx(expected)

    def test_default_tolerance_is_exposed(self):
        assert ADMISSIBLE_TOL == 1e-9

    @pytest.mark.parametrize(
        "check", [swap, matrix_residual, is_admissible_matrix, project_admissible, complex_from_real],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("shape", [(0, 0), (3, 3), (2, 4)])
    def test_matrices_must_be_non_empty_even_squares(self, check, shape):
        message = f"expected a non-empty even square matrix, got shape {shape}"
        if shape == (0, 0) and check is not swap:
            # The array rule refuses an empty matrix first, naming the parameter.
            name = "hrr" if check is complex_from_real else "m"
            message = f"{name} must be a non-empty array of shape (rows, cols), got shape {shape}"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            check(np.zeros(shape))


class TestMetricAndTransforms:
    def test_identity_metric(self):
        omega = MetricTensor.identity(3)
        assert omega.n == 3
        np.testing.assert_array_equal(omega.omega, np.eye(3))

    def test_metric_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            MetricTensor(np.array([[1.0, 1.0j], [1.0j, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    def test_metric_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="metric must be finite"):
            MetricTensor(np.array([[bad]]))
        with pytest.raises(ValueError, match="metric must be finite"):
            MetricTensor(np.array([[1.0, bad], [bad, 1.0]]))

    def test_metric_rejects_indefinite(self):
        with pytest.raises(ValueError):
            MetricTensor(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_identity_transform_changes_nothing(self):
        p = ComplexPoint(np.array([1.0 + 1.0j, 2.0 - 1.0j]))
        report = verify_transform_laws(np.eye(2), p)
        assert report.max_residual <= 1e-12
        np.testing.assert_allclose(report.omega_xi, np.eye(2))

    def test_frozen_scaling_transform(self):
        p = ComplexPoint(np.array([0.5 - 0.25j]))
        report = verify_transform_laws(2.0 * np.eye(1), p)
        np.testing.assert_allclose(report.omega_xi, 0.25 * np.eye(1))
        assert report.max_residual <= 1e-12

    def test_unitary_transform_preserves_identity_metric(self):
        theta = 0.3
        u = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ],
            dtype=complex,
        )
        p = ComplexPoint(np.array([1.0 + 0.5j, -0.25 + 2.0j]))
        report = verify_transform_laws(u, p)
        np.testing.assert_allclose(report.omega_xi, np.eye(2), atol=1e-12)
        assert report.max_residual <= 1e-10

    def test_random_invertible_transforms(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = random_complex_matrix(rng, n, n) + 2.0 * np.eye(n)
            p = ComplexPoint(random_complex_vector(rng, n))
            report = verify_transform_laws(a, p)
            assert report.max_residual <= 1e-8
            expected = np.linalg.inv(a).conj().T @ np.linalg.inv(a)
            np.testing.assert_allclose(report.omega_xi, expected, atol=1e-10)

    def test_singular_transform_rejected(self):
        p = ComplexPoint(np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(SingularMatrix):
            verify_transform_laws(np.zeros((2, 2)), p)


class TestCallerPoints:
    def test_complex_vectors_pass_through_and_points_are_copied(self):
        z = np.array([1.0 + 2.0j, -0.0 - 3.0j])
        assert as_complex_vector(z) is z
        point = ComplexPoint(z)
        assert as_complex_vector(point) is not point.z
        assert as_complex_vector(point).flags.writeable
        out = as_complex_vector(np.array([1.0, 2.0]))
        assert out.dtype == complex and out.shape == (2,)
        with pytest.raises(DimensionError):
            as_complex_vector(np.eye(2, dtype=complex))

    def test_library_leaves_the_callers_point_unchanged(self):
        center = np.array([0.5 - 1.0j, 2.0 + 0.25j])
        field = ScalarField(lambda z: float(np.real(np.vdot(z - center, z - center))), name="plain bowl")
        z0 = np.array([3.0 - 2.0j, -0.0 + 1.5j])
        before = z0.tobytes()
        cogradients_fd(field, z0)
        hessian_quad(field, z0)
        minimize(field, z0, QStrategy(kind="newton"))
        assert z0.tobytes() == before
