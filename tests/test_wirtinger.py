"""First derivative rows, holomorphy probes, and field algebra."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crcalc import (
    ConjugationMismatch,
    DimensionError,
    JacobianPair,
    MetricTensor,
    NonFiniteEvaluation,
    PolynomialParams,
    ScalarField,
    VectorField,
    WirtingerPair,
    cogradients,
    cogradients_fd,
    compose,
    differential,
    first_order_predict,
    gradient,
    is_holomorphic,
    polynomial_field,
    stationarity_residual,
)
from crcalc.hessian import FD_FORWARD_STEP, FD_SECOND_STEP, hessian_quad
from crcalc.wirtinger import FD_FIRST_STEP, _fd_blocks
from ._oracles import (
    conjugate_field,
    per_coordinate_fd_blocks,
    per_coordinate_cogradients_fd,
    random_complex_vector,
    random_poly_vector_field,
    random_quadratic_loss,
    z_to_r,
    real_fd_gradient,
)

RNG = np.random.default_rng


def modulus_squared():
    return ScalarField(lambda z: float(np.real(np.conj(z) @ z)), name="|z|^2")


class TestFrozenFirstDerivatives:
    def test_modulus_squared_rows(self):
        z = np.array([1.0 + 2.0j, -0.5 + 0.25j])
        pair = cogradients(modulus_squared(), z)
        np.testing.assert_allclose(pair.dz, np.conj(z), atol=1e-9)
        np.testing.assert_allclose(pair.dzbar, z, atol=1e-9)

    def test_linear_real_part(self):
        a = np.array([2.0 - 1.0j, 0.5 + 0.5j])
        field = ScalarField(lambda z: float(np.real(np.conj(a) @ z)), name="Re aHz")
        pair = cogradients(field, np.array([0.3 + 0.1j, -1.0 + 0j]))
        np.testing.assert_allclose(pair.dz, 0.5 * np.conj(a), atol=1e-9)

    def test_imaginary_part_row(self):
        field = ScalarField(lambda z: float(np.imag(z[0])), name="Im z")
        pair = cogradients(field, np.array([0.7 - 0.2j]))
        np.testing.assert_allclose(pair.dz, [-0.5j], atol=1e-9)

    def test_mixed_monomial_jacobian(self):
        field = VectorField(1, lambda z: z**2 * np.conj(z), name="z^2 conj(z)")
        z = np.array([1.5 - 0.5j])
        jac = cogradients(field, z)
        np.testing.assert_allclose(jac.jz, [[2.0 * z[0] * np.conj(z[0])]], atol=1e-8)
        np.testing.assert_allclose(jac.jzbar, [[z[0] ** 2]], atol=1e-8)

    def test_pure_conjugate_jacobian(self):
        field = VectorField(1, lambda z: np.conj(z), name="conj")
        jac = cogradients(field, np.array([0.2 + 0.9j]))
        np.testing.assert_allclose(jac.jz, [[0.0]], atol=1e-10)
        np.testing.assert_allclose(jac.jzbar, [[1.0]], atol=1e-10)


class TestDifferencingAgreement:
    def test_fd_matches_analytic_rows_on_random_quadratics(self):
        rng = RNG(42)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            field, _ = random_quadratic_loss(rng, n)
            z = random_complex_vector(rng, n)
            exact = field.cogradient_fn(z)
            fd = cogradients_fd(field, z)
            scale = max(1.0, float(np.abs(exact.dz).max()))
            assert np.abs(fd.dz - exact.dz).max() <= 1e-6 * scale

    def test_fd_matches_analytic_jacobians(self):
        rng = RNG(43)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            field = random_poly_vector_field(rng, n, m)
            z = random_complex_vector(rng, n)
            exact = field.jacobian_fn(z)
            fd = cogradients_fd(field, z)
            scale = max(1.0, float(np.abs(exact.jz).max()))
            assert np.abs(fd.jz - exact.jz).max() <= 1e-5 * scale
            assert np.abs(fd.jzbar - exact.jzbar).max() <= 1e-5 * scale

    def test_fd_rows_consistent_with_real_gradient(self):
        # dz = (df/dx - i df/dy) / 2 against a plain real-space oracle.
        rng = RNG(44)
        field, _ = random_quadratic_loss(rng, 3)
        z = random_complex_vector(rng, 3)
        pair = cogradients_fd(field, z)
        grad_r = real_fd_gradient(lambda r: field(r[:3] + 1j * r[3:]), z_to_r(z))
        expected = 0.5 * (grad_r[:3] - 1j * grad_r[3:])
        np.testing.assert_allclose(pair.dz, expected, atol=1e-6)

    def test_fd_pairing_is_exact_for_real_fields(self):
        rng = RNG(45)
        field, _ = random_quadratic_loss(rng, 2)
        plain = ScalarField(field.fn, name="plain")
        pair = cogradients_fd(plain, random_complex_vector(rng, 2))
        assert pair.conjugation_residual() == 0.0

    def test_custom_step_is_honored(self):
        field = modulus_squared()
        z = np.array([1.0 + 1.0j])
        loose = cogradients_fd(field, z, step=1e-2)
        assert np.abs(loose.dz - np.conj(z)).max() <= 1e-3
        with pytest.raises(ValueError):
            cogradients_fd(field, z, step=0.0)


def assert_same_bits(actual, expected):
    """Equal values, signed zeros included: same shape, dtype and bytes."""
    np.testing.assert_array_equal(actual, expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# Signed zeros, components inside the unit interval (base step) and
# components beyond it (step scaled by the component).
_COMPONENTS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0)),
    st.floats(-1e3, 1e3, allow_subnormal=False),
)


@st.composite
def stencil_cases(draw):
    """A field without derivatives, a point and a differencing step.

    The batched polynomial field is drawn at larger n as well, since its
    stack grows with n.
    """
    kind = draw(st.sampled_from(("quadratic", "map", "polynomial")))
    n = draw(st.integers(1, 64 if kind == "polynomial" else 5))
    z = np.empty(n, dtype=complex)
    z.real = draw(st.lists(_COMPONENTS, min_size=n, max_size=n))
    z.imag = draw(st.lists(_COMPONENTS, min_size=n, max_size=n))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    if kind == "quadratic":
        field = ScalarField(random_quadratic_loss(rng, n)[0].fn, name="plain quadratic")
    elif kind == "map":
        m = draw(st.integers(1, 3))
        field = VectorField(m, random_poly_vector_field(rng, n, m).fn, name="plain map")
    else:
        params = PolynomialParams(
            rng.uniform(-1.0, 3.0, n), random_complex_vector(rng, n), random_complex_vector(rng, n, 2.0),
            rng.uniform(-1.0, 1.0),
        )
        field = polynomial_field(params)
        assert field.batched
    return field, z, draw(st.sampled_from((None, FD_SECOND_STEP)))


def probe_stack(field, z, step):
    """The (4n, n) probe stack that differencing hands a batched field."""
    stacks = []

    def spy(w):
        stacks.append(w.copy())
        return field.fn(w)

    cogradients_fd(ScalarField(spy, name="spy", batched=True), z, step=step)
    (stack,) = stacks
    return stack


class TestBatchedStencil:
    """Differencing matches the per-coordinate stencil bit for bit."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(stencil_cases())
    def test_blocks_equal_the_per_coordinate_loop(self, case):
        field, z, step = case
        jz, jzbar = per_coordinate_cogradients_fd(field, z, FD_FIRST_STEP if step is None else step)
        pair = cogradients_fd(field, z, step=step)
        if isinstance(field, ScalarField):
            assert_same_bits(pair.dz, jz[0])
            assert_same_bits(pair.dzbar, jzbar[0])
        else:
            assert pair.jz.flags.c_contiguous and pair.jzbar.flags.c_contiguous
            assert_same_bits(pair.jz, jz)
            assert_same_bits(pair.jzbar, jzbar)
        if isinstance(field, ScalarField) and field.batched:
            # The same fn taken row by row, and fn on the stack against fn on each row.
            row_wise = cogradients_fd(ScalarField(field.fn, name="row-wise"), z, step=step)
            assert_same_bits(row_wise.dz, jz[0])
            assert_same_bits(row_wise.dzbar, jzbar[0])
            stack = probe_stack(field, z, step)
            assert stack.shape == (4 * z.shape[0], z.shape[0])
            assert_same_bits(field.fn(stack), np.array([field.fn(row) for row in stack]))


    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(stencil_cases())
    def test_forward_blocks_equal_the_per_coordinate_loop(self, case):
        # Given the value at z, the probes are +x, +y per coordinate: 2n rows.
        field, z, step = case
        base = FD_FORWARD_STEP if step is None else step
        if isinstance(field, ScalarField):
            m, call = 1, lambda w: np.array([field(w)])
        else:
            m, call = field.m, field
        centre = call(z)
        stacks, points = [], []

        def evaluate(stack):
            stacks.append(stack.copy())
            return field._evaluate_stack(stack)

        def recorded(w):
            points.append(w.copy())
            return call(w)

        jz, jzbar = _fd_blocks(evaluate, z, base, m, centre)
        want_jz, want_jzbar = per_coordinate_fd_blocks(recorded, z, base, m, centre=centre)
        assert_same_bits(jz, want_jz)
        assert_same_bits(jzbar, want_jzbar)
        (stack,) = stacks
        assert_same_bits(stack, np.array(points))


def recording_field(points, vector=False):
    """|z|^2 (or z itself) that keeps a copy of every point it is called at."""

    def fn(w):
        points.append(w.copy())
        return w if vector else float(np.real(np.conj(w) @ w))

    if vector:
        return VectorField(3, fn, name="recorded map")
    return ScalarField(fn, name="recorded |z|^2")


class TestProbeOrder:
    Z = np.array([1.5 - 0.5j, -2.0 + 3.0j, 0.25j])

    def expected_probes(self, z):
        out = []
        for i in range(z.shape[0]):
            ex = np.zeros(z.shape[0], dtype=complex)
            ex[i] = FD_FIRST_STEP * max(1.0, abs(z[i].real))
            ey = np.zeros(z.shape[0], dtype=complex)
            ey[i] = 1j * FD_FIRST_STEP * max(1.0, abs(z[i].imag))
            out += [z + ex, z - ex, z + ey, z - ey]
        return out

    @pytest.mark.parametrize("vector", [False, True])
    def test_row_probes_in_coordinate_order(self, vector):
        points = []
        cogradients_fd(recording_field(points, vector), self.Z)
        expected = self.expected_probes(self.Z)
        assert len(points) == 4 * self.Z.shape[0]
        for got, want in zip(points, expected):
            np.testing.assert_array_equal(got, want)

    def test_differenced_row_costs_four_evaluations_per_coordinate(self):
        points = []
        cogradients(recording_field(points), self.Z)
        assert len(points) == 12
        assert not any(np.array_equal(w, self.Z) for w in points)

    def expected_curvature_probes(self, z):
        """The values-only curvature's probes in call order, one coordinate at a time.

        For each real coordinate i of r = (Re z, Im z): +i, -i, then
        +i+j and -i-j for each later j; the centre comes last.
        """
        r = z_to_r(z)
        h = [FD_SECOND_STEP * max(1.0, abs(c)) for c in r]

        def probe(*moves):
            rr = r.copy()
            for k, sign in moves:
                rr[k] = r[k] + sign * h[k]
            return np.array([complex(x, y) for x, y in zip(rr[: z.shape[0]], rr[z.shape[0] :])])

        out = []
        for i in range(r.shape[0]):
            out += [probe((i, 1)), probe((i, -1))]
            for j in range(i + 1, r.shape[0]):
                out += [probe((i, 1), (j, 1)), probe((i, -1), (j, -1))]
        return out + [z.copy()]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_values_only_curvature_costs_4n2_2n_1(self, n):
        points = []
        z = self.Z[:n]
        hessian_quad(recording_field(points), z)
        expected = self.expected_curvature_probes(z)
        assert len(points) == len(expected) == 4 * n * n + 2 * n + 1
        for got, want in zip(points, expected):
            assert_same_bits(got, want)

    def failing_at(self, probe, bad):
        calls = []

        def fn(w):
            calls.append(None)
            return bad if len(calls) == probe else float(np.real(np.conj(w) @ w))

        return ScalarField(fn, name="fails once")

    @pytest.mark.parametrize("probe", [1, 6, 12])
    def test_nan_at_one_probe_is_non_finite(self, probe):
        with pytest.raises(NonFiniteEvaluation):
            cogradients_fd(self.failing_at(probe, float("nan")), self.Z)

    @pytest.mark.parametrize("probe", [1, 6, 12])
    def test_complex_value_at_one_probe_is_rejected(self, probe):
        with pytest.raises(ValueError, match="real-valued"):
            cogradients_fd(self.failing_at(probe, 1.0 + 0.5j), self.Z)

    def batched_failing_at(self, failures):
        """|z|^2 over a stack, with ``failures`` mapping a 1-based probe to its value."""

        def fn(stack):
            values = np.real(np.sum(np.conj(stack) * stack, axis=-1)).astype(complex)
            for probe, bad in failures.items():
                values[probe - 1] = bad
            return values

        return ScalarField(fn, name="fails once", batched=True)

    def raised(self, field):
        with pytest.raises(Exception) as info:
            cogradients_fd(field, self.Z)
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), complex(1.0, np.inf), 1.0 + 0.5j])
    @pytest.mark.parametrize("probe", [1, 6, 12])
    def test_a_batched_failure_raises_what_the_row_wise_call_raises(self, probe, bad):
        expected = self.raised(self.failing_at(probe, bad))
        assert expected[0] in (NonFiniteEvaluation, ValueError)
        assert self.raised(self.batched_failing_at({probe: bad})) == expected

    def test_the_first_failing_probe_in_call_order_is_reported(self):
        got = self.raised(self.batched_failing_at({9: float("nan"), 4: 2.0 + 1.0j}))
        assert got == self.raised(self.failing_at(4, 2.0 + 1.0j))
        assert got[0] is ValueError and "real-valued" in got[1]

    def test_real_dust_in_a_batch_is_dropped(self):
        dusty = self.batched_failing_at({3: 7.0 + 5e-10j})
        exact = self.batched_failing_at({3: 7.0})
        assert_same_bits(cogradients_fd(dusty, self.Z).dz, cogradients_fd(exact, self.Z).dz)

    @pytest.mark.parametrize(
        "shape_of", [lambda k: (k, 1), lambda k: (k - 1,), lambda k: (), lambda k: (2 * k,)]
    )
    def test_a_wrongly_shaped_batch_is_a_dimension_error(self, shape_of):
        field = ScalarField(lambda stack: np.ones(shape_of(stack.shape[0])), name="misshapen", batched=True)
        with pytest.raises(DimensionError, match="misshapen returned shape"):
            cogradients_fd(field, self.Z)

    # Signed zeros survive or flip in a probe exactly as the old probe sets had them.
    SIGNED = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 2.0)])

    @pytest.mark.parametrize("z", [Z, SIGNED], ids=["plain", "signed zeros"])
    def test_a_batched_field_sees_the_probes_in_one_call(self, z):
        stacks = []

        def fn(w):
            stacks.append(w.copy())
            return np.real(np.sum(np.conj(w) * w, axis=-1))

        field = ScalarField(fn, name="recorded batch", batched=True)
        cogradients_fd(field, z)
        (stack,) = stacks
        expected = self.expected_probes(z)
        assert stack.shape == (len(expected), z.shape[0])
        for got, want in zip(stack, expected):
            assert_same_bits(got, want)
        # A single point is still passed as a 1-D array.
        field(z)
        assert stacks[-1].shape == z.shape

    @pytest.mark.parametrize("z", [Z, SIGNED], ids=["plain", "signed zeros"])
    @pytest.mark.parametrize("vector", [False, True])
    def test_a_row_wise_field_sees_each_probe_through_call_once(self, monkeypatch, vector, z):
        cls = VectorField if vector else ScalarField
        seen = []
        inner = cls.__call__

        def spy(self, p):
            seen.append(np.array(p, copy=True))
            return inner(self, p)

        monkeypatch.setattr(cls, "__call__", spy)
        points = []
        cogradients_fd(recording_field(points, vector), z)
        expected = self.expected_probes(z)
        assert len(seen) == len(points) == len(expected)
        for via_call, via_fn, want in zip(seen, points, expected):
            assert_same_bits(via_call, want)
            assert_same_bits(via_fn, want)

    def test_nan_from_a_vector_field_probe_is_non_finite(self):
        calls = []

        def fn(w):
            calls.append(None)
            return np.full(3, np.nan) if len(calls) == 7 else w

        with pytest.raises(NonFiniteEvaluation):
            cogradients_fd(VectorField(3, fn), self.Z)


class TestValidation:
    def test_conjugation_mismatch_detected(self):
        def bad_rows(z):
            return WirtingerPair(np.conj(z), 2.0 * z)

        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            cogradient_fn=bad_rows,
            name="bad rows",
        )
        with pytest.raises(ConjugationMismatch):
            cogradients(field, np.array([1.0 + 1.0j]))

    @pytest.mark.parametrize(
        "dz, dzbar",
        [([np.nan], [np.nan]), ([np.inf], [np.inf]), ([complex(np.inf, np.nan)], [1.0])],
        ids=["nan", "inf", "inf-nan"],
    )
    def test_non_finite_rows_are_a_typed_error_without_warnings(self, dz, dzbar):
        # Each residual is NaN, which the tolerance comparison alone would pass.
        field = ScalarField(
            lambda z: 0.0, cogradient_fn=lambda z: WirtingerPair(dz, dzbar), name="non-finite rows"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEvaluation, match="^non-finite rows: derivative rows are not finite"):
                cogradients(field, np.array([1.0 + 0j]))

    def test_rows_of_the_wrong_length_rejected(self):
        field = ScalarField(
            lambda z: float(np.real(np.conj(z) @ z)),
            cogradient_fn=lambda z: WirtingerPair(np.ones(3), np.ones(3)),
            name="long rows",
        )
        with pytest.raises(DimensionError, match="length 3, expected 2"):
            cogradients(field, np.array([1.0 + 0j, 2.0 + 0j]))

    @pytest.mark.parametrize(
        "rows, kind",
        [((np.ones(2), np.ones(2)), "tuple"), ([np.ones(2), np.ones(2)], "list"), (np.ones(2), "ndarray")],
    )
    def test_rows_that_are_not_a_pair_rejected(self, rows, kind):
        field = ScalarField(lambda z: float(np.real(np.conj(z) @ z)), cogradient_fn=lambda z: rows, name="bare rows")
        with pytest.raises(DimensionError, match=f"^bare rows: cogradient_fn must return a WirtingerPair, got {kind}$"):
            cogradients(field, np.array([1.0 + 0j, 2.0 + 0j]))

    def test_scalar_field_rejects_complex_values(self):
        field = ScalarField(lambda z: z[0], name="not real")
        with pytest.raises(ValueError):
            field(np.array([1.0 + 1.0j]))

    def test_non_finite_evaluation(self):
        field = ScalarField(lambda z: float("nan"), name="nan")
        with pytest.raises(NonFiniteEvaluation):
            cogradients_fd(field, np.array([1.0 + 0j]))

    @pytest.mark.parametrize(
        "entry", [np.inf, -np.inf, complex(0.0, np.inf), complex(1.0, -np.inf)], ids=["+re", "-re", "+im", "-im"]
    )
    @pytest.mark.parametrize("batched", [False, True], ids=["row-wise", "batched"])
    def test_infinite_point_is_non_finite_without_warnings(self, entry, batched):
        # An infinite coordinate makes an infinite step, so a probe holds
        # inf - inf; the probe's value fails its check, and nothing warns.
        if batched:
            field = ScalarField(lambda z: np.sum(np.abs(z) ** 2, axis=-1), name="norm", batched=True)
        else:
            field = ScalarField(lambda z: float(np.sum(np.abs(z) ** 2)), name="norm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEvaluation):
                cogradients(field, [entry, 1.0])

    def test_vector_field_shape_checked(self):
        field = VectorField(2, lambda z: z, name="wrong length")
        with pytest.raises(ValueError):
            field(np.array([1.0 + 0j]))

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
    def test_vector_field_length_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {re.escape(repr(m))}$"):
            VectorField(m, lambda z: z)

    @pytest.mark.parametrize("m", [2, np.int64(2), np.uint8(2)])
    def test_vector_field_takes_python_and_numpy_integers(self, m):
        field = VectorField(m, lambda z: z)
        assert field.m == 2 and type(field.m) is int
        np.testing.assert_array_equal(field(np.array([1.0 + 0j, 2j])), [1.0, 2j])

    def test_pair_shapes_validated(self):
        with pytest.raises(ValueError):
            WirtingerPair(np.zeros(2, dtype=complex), np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            JacobianPair(np.zeros((2, 2), dtype=complex), np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (1, 2)])
    def test_jacobian_blocks_of_the_wrong_shape_rejected(self, shape):
        field = VectorField(
            2,
            lambda z: z,
            jacobian_fn=lambda z: JacobianPair(np.ones(shape), np.zeros(shape)),
            name="misshapen jacobian",
        )
        with pytest.raises(DimensionError, match=r"\(2, 2\)"):
            cogradients(field, np.array([1.0 + 0j, 2.0 + 0j]))

    @pytest.mark.parametrize(
        "blocks, kind",
        [((np.eye(2), np.zeros((2, 2))), "tuple"), (np.eye(2), "ndarray")],
    )
    def test_jacobian_that_is_not_a_pair_rejected(self, blocks, kind):
        field = VectorField(2, lambda z: z, jacobian_fn=lambda z: blocks, name="bare blocks")
        with pytest.raises(DimensionError, match=f"^bare blocks: jacobian_fn must return a JacobianPair, got {kind}$"):
            cogradients(field, np.array([1.0 + 0j, 2.0 + 0j]))


class TestValueCheck:
    """What a field's value may be, one call at a time and row by row."""

    Z = np.array([0.5 - 1j, 2.0 + 0j])

    def stack_of(self, values):
        """A row-wise field giving ``values`` in turn, the rows it was asked for, and a stack."""
        asked = []

        def fn(w):
            asked.append(w.copy())
            return values[len(asked) - 1]

        stack = np.array([self.Z + k for k in range(len(values))])
        return ScalarField(fn, name="listed"), asked, stack

    @pytest.mark.parametrize(
        "value, want",
        [
            (2.5, 2.5),
            (-0.0, -0.0),
            (7, 7.0),
            (np.float32(1.25), 1.25),
            (np.float64(-3.5), -3.5),
            (complex(4.0, -0.0), 4.0),
            (4.0 + 5e-11j, 4.0),
            (1e3 - 5e-8j, 1e3),
        ],
        ids=["float", "negative zero", "int", "float32", "float64", "complex", "dust", "relative dust"],
    )
    def test_a_real_value_or_dust_comes_back_as_a_python_float(self, value, want):
        got = ScalarField(lambda w: value)(self.Z)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        field, _, stack = self.stack_of([value] * 3)
        values = field._evaluate_stack(stack)
        assert values.dtype == np.float64 and values.shape == (3,)
        assert values.tobytes() == np.full(3, want).tobytes()

    @pytest.mark.parametrize("value", [1.0 + 1e-9j, complex(0.0, 2e-10), 1e3 + 1e-6j])
    def test_a_larger_imaginary_part_is_refused(self, value):
        field, _, _ = self.stack_of([value])
        with pytest.raises(ValueError, match=f"^{re.escape(f'listed must be real-valued, got {value!r}')}$"):
            field(self.Z)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -np.inf, complex(np.nan, 0.0), complex(1.0, np.inf), np.float32("nan")]
    )
    def test_a_non_finite_value_is_refused(self, value):
        field, _, _ = self.stack_of([value])
        message = f"listed returned a non-finite value at {self.Z!r}"
        with pytest.raises(NonFiniteEvaluation, match=f"^{re.escape(message)}$"):
            field(self.Z)

    @pytest.mark.parametrize("bad", [float("nan"), 1.0 + 1.0j, complex(np.nan, 0.0)])
    def test_the_first_failing_row_raises_before_the_next_is_evaluated(self, bad):
        field, asked, stack = self.stack_of([1.0, bad, 2.0, float("nan")])
        with pytest.raises((NonFiniteEvaluation, ValueError)) as row_wise:
            field._evaluate_stack(stack)
        assert len(asked) == 2
        for got, want in zip(asked, stack):
            assert_same_bits(got, want)
        with pytest.raises(type(row_wise.value)) as single:
            ScalarField(lambda w: bad, name="listed")(stack[1])
        assert str(row_wise.value) == str(single.value)


class TestHolomorphy:
    HOLO = {
        "square": VectorField(1, lambda z: z**2),
        "exp": VectorField(1, lambda z: np.exp(z)),
        "inner": VectorField(1, lambda z: np.array([np.sum(np.array([1.0 - 1.0j, 2.0 + 0.5j]).conj() * z)])),
    }

    def test_holomorphic_maps_pass_fd_probe(self):
        assert is_holomorphic(self.HOLO["square"], center=[0.4 + 0.2j]).holomorphic
        assert is_holomorphic(self.HOLO["exp"], center=[0.0 + 0j]).holomorphic
        assert is_holomorphic(self.HOLO["inner"], center=[0.1 + 0.1j, -0.3 + 0j]).holomorphic

    def test_antiholomorphic_and_real_maps_fail(self):
        cases = [
            VectorField(1, lambda z: np.conj(z)),
            VectorField(1, lambda z: np.real(z).astype(complex)),
            VectorField(1, lambda z: np.imag(z).astype(complex)),
            VectorField(1, lambda z: (z * np.conj(z)).astype(complex)),
            VectorField(1, lambda z: np.abs(z).astype(complex)),
        ]
        for field in cases:
            report = is_holomorphic(field, center=[0.8 + 0.3j])
            assert not report.holomorphic
            assert report.max_residual > report.tol

    def test_analytic_probe_uses_tight_threshold(self):
        field = random_poly_vector_field(RNG(5), 2, 2, holomorphic=True)
        report = is_holomorphic(field, center=[0.1 + 0.2j, -0.4 + 0j])
        assert report.tol == 1e-9
        assert report.holomorphic
        assert report.points == 17

    def test_explicit_points_and_seed_stability(self):
        field = self.HOLO["square"]
        by_points = is_holomorphic(field, points=[[0.1 + 0j], [1.0 + 1.0j]])
        assert by_points.points == 2
        a = is_holomorphic(field, center=[0.0 + 0j], seed=3)
        b = is_holomorphic(field, center=[0.0 + 0j], seed=3)
        assert a.max_residual == b.max_residual

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [0, 1])
    def test_a_non_finite_conjugate_block_is_not_holomorphic(self, bad, at):
        # The running builtin max dropped a NaN once a finite residual was in.
        points = [[0.1 + 0j], [1.0 + 1.0j]]

        def jacobian(z):
            return JacobianPair(np.ones((1, 1)), np.full((1, 1), bad if z[0] == points[at][0] else 0.0))

        report = is_holomorphic(VectorField(1, lambda z: z, jacobian_fn=jacobian), points=points)
        assert not report.holomorphic
        assert not np.isfinite(report.max_residual)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            is_holomorphic(self.HOLO["square"])
        with pytest.raises(ValueError):
            is_holomorphic(self.HOLO["square"], points=[])
        with pytest.raises(TypeError):
            is_holomorphic(modulus_squared(), center=[0.0 + 0j])


class TestGradientAndPredictions:
    def test_euclidean_gradient_is_conjugated_row(self):
        z = np.array([1.0 - 1.0j, 0.5 + 2.0j])
        g = gradient(modulus_squared(), z)
        np.testing.assert_allclose(g, z, atol=1e-9)

    def test_metric_rescales_gradient(self):
        z = np.array([1.0 - 1.0j])
        g = gradient(modulus_squared(), z, metric=MetricTensor(2.0 * np.eye(1)))
        np.testing.assert_allclose(g, z / 2.0, atol=1e-9)

    def test_gradient_direction_maximizes_ascent(self):
        rng = RNG(46)
        field, _ = random_quadratic_loss(rng, 2, definite=True)
        z = random_complex_vector(rng, 2)
        g = gradient(field, z)
        g = g / np.linalg.norm(g)
        pair = cogradients(field, z)
        best = 2.0 * float(np.real(pair.dz @ g))
        for _ in range(40):
            v = random_complex_vector(rng, 2)
            v = v / np.linalg.norm(v)
            assert 2.0 * float(np.real(pair.dz @ v)) <= best + 1e-12

    def test_stationarity_residual_vanishes_at_optimum(self):
        field = modulus_squared()
        assert stationarity_residual(field, np.zeros(1, dtype=complex)) <= 1e-12
        assert stationarity_residual(field, np.array([1.0 + 0j])) > 0.5

    def test_first_order_predict_frozen_value(self):
        # f = |z|^2 at z=1 stepped by eps: prediction 1 + 2 Re(eps).
        field = modulus_squared()
        got = first_order_predict(field, np.array([1.0 + 0j]), np.array([0.01 + 0.02j]))
        assert got == pytest.approx(1.02, abs=1e-9)

    def test_first_order_predict_refuses_a_step_of_another_length(self):
        with pytest.raises(DimensionError, match="^delta_z has length 2, expected 1$"):
            first_order_predict(modulus_squared(), [1.0], [1.0, 2.0])

    def test_first_order_predict_tracks_small_steps(self):
        rng = RNG(47)
        field, _ = random_quadratic_loss(rng, 3)
        z = random_complex_vector(rng, 3)
        delta = 1e-5 * random_complex_vector(rng, 3)
        predicted = first_order_predict(field, z, delta)
        actual = field(z + delta)
        assert abs(predicted - actual) <= 1e-8

    def test_differential_matches_direct_difference(self):
        rng = RNG(48)
        field = random_poly_vector_field(rng, 3, 2)
        z = random_complex_vector(rng, 3)
        delta = random_complex_vector(rng, 3)
        jac = cogradients(field, z)
        t = 1e-4
        fd = (field(z + t * delta) - field(z - t * delta)) / (2.0 * t)
        np.testing.assert_allclose(differential(jac, delta), fd, atol=1e-9)


class TestFieldAlgebra:
    def test_conjugate_field_swaps_blocks(self):
        rng = RNG(49)
        field = random_poly_vector_field(rng, 2, 3)
        z = random_complex_vector(rng, 2)
        base = cogradients(field, z)
        conj = cogradients(conjugate_field(field), z)
        np.testing.assert_allclose(conj.jz, np.conj(base.jzbar), atol=1e-12)
        np.testing.assert_allclose(conj.jzbar, np.conj(base.jz), atol=1e-12)

    def test_conjugate_field_blocks_match_differencing(self):
        rng = RNG(50)
        field = random_poly_vector_field(rng, 2, 2)
        conj = conjugate_field(field)
        z = random_complex_vector(rng, 2)
        exact = cogradients(conj, z)
        fd = cogradients_fd(conj, z)
        assert np.abs(exact.jz - fd.jz).max() <= 1e-5
        assert np.abs(exact.jzbar - fd.jzbar).max() <= 1e-5

    def test_composition_chain_rule_against_differencing(self):
        rng = RNG(51)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            mid = int(rng.integers(1, 4))
            out = int(rng.integers(1, 4))
            inner = random_poly_vector_field(rng, n, mid, scale=0.3)
            outer = random_poly_vector_field(rng, mid, out, scale=0.3)
            combo = compose(outer, inner)
            z = random_complex_vector(rng, n, scale=0.5)
            exact = cogradients(combo, z)
            fd = cogradients_fd(combo, z)
            scale = max(1.0, float(np.abs(exact.jz).max()))
            assert np.abs(exact.jz - fd.jz).max() <= 1e-5 * scale
            assert np.abs(exact.jzbar - fd.jzbar).max() <= 1e-5 * scale

    def test_composition_with_holomorphic_outer_stays_holomorphic(self):
        rng = RNG(52)
        inner = random_poly_vector_field(rng, 2, 2, holomorphic=True)
        outer = random_poly_vector_field(rng, 2, 2, holomorphic=True)
        combo = compose(outer, inner)
        report = is_holomorphic(combo, center=[0.1 + 0.1j, 0.2 - 0.1j])
        assert report.holomorphic

    def test_composition_values(self):
        inner = VectorField(1, lambda z: z + 1.0)
        outer = VectorField(1, lambda z: z**2)
        combo = compose(outer, inner)
        np.testing.assert_allclose(combo(np.array([1.0 + 1.0j])), [(2.0 + 1.0j) ** 2])
