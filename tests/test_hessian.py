"""Curvature blocks, assembled representations, and their relations."""

import numpy as np
import pytest

from crcalc import (
    AssembledHessians,
    HessianQuad,
    NonFiniteEvaluation,
    RelationViolation,
    ScalarField,
    SymmetryViolation,
    assemble,
    complex_from_real,
    hessian_quad,
    is_admissible_matrix,
    second_order_predict,
)
from ._oracles import (
    dense_j,
    dense_s,
    quartic_norm_field,
    random_complex_vector,
    random_quadratic_loss,
    real_fd_hessian,
    z_to_r,
)

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


class TestQuadValidation:
    def test_invariants_enforced_on_construction(self):
        with pytest.raises(ValueError):
            HessianQuad(
                np.eye(2),
                np.zeros((2, 3)),
                np.zeros((2, 2)),
                np.eye(2),
            )

    def test_invariant_residual_reports_block_violations(self):
        quad = HessianQuad(
            np.array([[1.0 + 0j]]),
            np.array([[2.0 + 1.0j]]),
            np.array([[2.0 - 1.0j]]),
            np.array([[1.0 + 0j]]),
        )
        assert quad.invariant_residual() <= 1e-15
        skew = HessianQuad(
            np.array([[1.0 + 1.0j]]),
            np.array([[0.0 + 0j]]),
            np.array([[0.0 + 0j]]),
            np.array([[1.0 - 1.0j]]),
        )
        assert skew.invariant_residual() >= 1.0

    def test_symmetry_violation_from_inconsistent_analytic_blocks(self):
        def lying_hessian(z):
            return HessianQuad.__new__(HessianQuad)

        def rows(z):
            from crcalc import WirtingerPair

            return WirtingerPair(np.conj(z), z)

        def bad_quad(z):
            # Degenerate object bypassing validation to simulate a bad callback.
            quad = HessianQuad.__new__(HessianQuad)
            object.__setattr__(quad, "hzz", np.array([[1.0 + 0j]]))
            object.__setattr__(quad, "hzbz", np.array([[0.5 + 0j]]))
            object.__setattr__(quad, "hzzb", np.array([[-0.5 + 0j]]))
            object.__setattr__(quad, "hzbzb", np.array([[1.0 + 0j]]))
            object.__setattr__(quad, "presym_residual", 0.0)
            return quad

        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            cogradient_fn=rows,
            hessian_fn=bad_quad,
            name="inconsistent blocks",
        )
        with pytest.raises(SymmetryViolation):
            hessian_quad(field, np.array([1.0 + 0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_analytic_blocks_are_rejected(self, bad):
        # A NaN symmetry residual passes the tolerance test, so the
        # blocks must be rejected for being non-finite, not classified.
        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            hessian_fn=lambda z: HessianQuad([[bad]], [[0.0]], [[0.0]], [[bad]]),
            name="non-finite curvature",
        )
        with pytest.raises(NonFiniteEvaluation):
            hessian_quad(field, np.array([1.0 + 0j]))
        with pytest.raises(NonFiniteEvaluation):
            assemble(HessianQuad([[bad]], [[0.0]], [[0.0]], [[bad]]))


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
        quad = HessianQuad.__new__(HessianQuad)
        object.__setattr__(quad, "hzz", np.array([[1.0 + 1.0j]]))
        object.__setattr__(quad, "hzbz", np.array([[0.0 + 0j]]))
        object.__setattr__(quad, "hzzb", np.array([[0.0 + 0j]]))
        object.__setattr__(quad, "hzbzb", np.array([[1.0 - 1.0j]]))
        object.__setattr__(quad, "presym_residual", 0.0)
        with pytest.raises(RelationViolation):
            assemble(quad)

    def test_assemble_rejects_an_imaginary_real_form(self):
        # Bottom blocks 1e-9 away from conj(top): inside the 1e-8
        # invariant allowance, but the real-coordinate congruence of
        # the full matrix keeps an imaginary part above 1e-10.
        stray = 1e-9j * np.eye(2)
        quad = HessianQuad(np.eye(2), np.zeros((2, 2)), stray, np.eye(2))
        assert quad.invariant_residual() <= 1e-8
        with pytest.raises(RelationViolation, match="imaginary residue"):
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
