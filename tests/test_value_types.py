"""The validating value types: constructor signatures, messages, immutability.

Each of these types normalises its inputs in a hand-written ``__init__``
and declares its attributes in ``__slots__``.  The signature table below
was recorded from the frozen-dataclass versions these classes replaced,
so a call written against either keeps working.  ``_Weight`` replaced a
``_Weight.build(w, m)`` factory, whose signature it took over.
"""

import ast
import inspect
import re
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crcalc
from crcalc import (
    ComplexPoint,
    ConjugateCoordinates,
    CrcalcError,
    DimensionError,
    Example1Problem,
    HessianQuad,
    InadmissibleVector,
    JacobianPair,
    MetricTensor,
    OptimizerConfig,
    PolynomialParams,
    QStrategy,
    RealCoordinates,
    ScalarField,
    SignalModel,
    StructureMatrices,
    VectorField,
    WirtingerPair,
    cogradients_fd,
    draw_signals,
    is_holomorphic,
    simulate,
    verify_transform_laws,
)
from crcalc.lsq import _Weight

PACKAGE = Path(crcalc.__file__).parent

POS = inspect.Parameter.POSITIONAL_OR_KEYWORD
KW = inspect.Parameter.KEYWORD_ONLY
REQ = inspect.Parameter.empty

SIGNATURES = {
    WirtingerPair: [("dz", POS, REQ), ("dzbar", POS, REQ)],
    JacobianPair: [("jz", POS, REQ), ("jzbar", POS, REQ)],
    HessianQuad: [("hzz", POS, REQ), ("hzbz", POS, REQ), ("presym_residual", KW, 0.0)],
    ComplexPoint: [("z", POS, REQ)],
    RealCoordinates: [("r", POS, REQ)],
    ConjugateCoordinates: [("c", POS, REQ), ("tol", POS, 1e-9)],
    MetricTensor: [("omega", POS, REQ)],
    Example1Problem: [("alpha", POS, REQ), ("beta", POS, REQ), ("samples", POS, REQ)],
    PolynomialParams: [
        ("quad_diag", POS, REQ),
        ("conj_diag", POS, REQ),
        ("linear", POS, REQ),
        ("constant", POS, 0.0),
    ],
    SignalModel: [
        ("n", POS, REQ),
        ("r_matrix", POS, REQ),
        ("p", POS, REQ),
        ("noise_var", POS, 0.0),
        ("seed", POS, 0),
    ],
    _Weight: [("w", POS, REQ), ("m", POS, REQ)],
}

#: One valid construction per type, every argument given by keyword.
KEYWORD_BUILDS = {
    WirtingerPair: lambda: WirtingerPair(dz=[1j], dzbar=[-1j]),
    JacobianPair: lambda: JacobianPair(jz=np.eye(2), jzbar=np.zeros((2, 2))),
    HessianQuad: lambda: HessianQuad(hzz=np.eye(2), hzbz=np.zeros((2, 2)), presym_residual=1e-12),
    ComplexPoint: lambda: ComplexPoint(z=[1.0, 2j]),
    RealCoordinates: lambda: RealCoordinates(r=[1.0, 0.0, 0.0, 2.0]),
    ConjugateCoordinates: lambda: ConjugateCoordinates(c=[1 + 1j, 1 - 1j], tol=1e-12),
    MetricTensor: lambda: MetricTensor(omega=2.0 * np.eye(2)),
    Example1Problem: lambda: Example1Problem(alpha=1.0, beta=0.5j, samples=[1.0, 2j]),
    PolynomialParams: lambda: PolynomialParams(
        quad_diag=[2.0], conj_diag=[0.5j], linear=[1.0], constant=3.0
    ),
    SignalModel: lambda: SignalModel(
        n=2, r_matrix=np.eye(2), p=[1.0, 1j], noise_var=0.1, seed=7
    ),
    _Weight: lambda: _Weight(w=[1.0, 2.0], m=2),
}


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == SIGNATURES[cls]


def test_presym_residual_is_keyword_only():
    with pytest.raises(TypeError):
        HessianQuad(np.eye(1), np.zeros((1, 1)), 1e-12)
    assert HessianQuad(np.eye(1), np.zeros((1, 1)), presym_residual=1e-12).presym_residual == 1e-12


@pytest.mark.parametrize("cls", list(KEYWORD_BUILDS), ids=lambda c: c.__name__)
def test_keyword_construction(cls):
    assert isinstance(KEYWORD_BUILDS[cls](), cls)


def test_keyword_construction_normalises_and_fills_defaults():
    quad = HessianQuad(hzz=2.0, hzbz=0.5j)
    assert quad.hzz.shape == quad.hzbz.shape == (1,)
    assert quad.hzz.dtype == complex and quad.presym_residual == 0.0
    model = SignalModel(n=2, r_matrix=np.eye(2), p=[1.0, 1j])
    np.testing.assert_array_equal(model.p, np.array([1.0, 1j]))
    assert (model.noise_var, model.seed) == (0.0, 0)
    params = PolynomialParams(quad_diag=2, conj_diag=0.5j, linear=1)
    assert (params.quad_diag.dtype, params.conj_diag.dtype, params.linear.dtype) == (float, complex, complex)
    assert params.constant == 0.0
    weight = _Weight(None, 3)
    assert weight.values.shape == () and float(weight.values) == 1.0


def _nonsym():
    return np.array([[1.0, 1.0], [0.0, 1.0]])


#: (constructor call, exception type, exact message) for every check.
BAD_INPUTS = [
    (lambda: WirtingerPair([1.0], [1.0, 2.0]), DimensionError,
     "derivative rows must be vectors of equal length"),
    (lambda: WirtingerPair(np.eye(2), np.eye(2)), DimensionError,
     "derivative rows must be vectors of equal length"),
    (lambda: JacobianPair(np.eye(2), np.eye(3)), DimensionError,
     "jacobian blocks must share a shape"),
    (lambda: HessianQuad(np.eye(2), np.zeros(2)), DimensionError,
     "curvature blocks must share an n x n or length-n shape"),
    (lambda: HessianQuad(np.ones((2, 3)), np.ones((2, 3))), DimensionError,
     "curvature blocks must share an n x n or length-n shape"),
    (lambda: ComplexPoint(np.eye(2)), DimensionError, "expected a vector, got shape (2, 2)"),
    (lambda: ComplexPoint([np.nan]), ValueError, "point has non-finite entries"),
    (lambda: RealCoordinates([1.0, 2.0, 3.0]), DimensionError,
     "expected an even-length real vector, got shape (3,)"),
    (lambda: RealCoordinates([np.inf, 0.0]), ValueError, "coordinates have non-finite entries"),
    (lambda: ConjugateCoordinates([1.0, 2.0, 3.0]), DimensionError,
     "expected an even-length vector, got shape (3,)"),
    (lambda: ConjugateCoordinates([1j, 1j]), InadmissibleVector,
     "conjugate pairing violated: residual 2.000e+00 exceeds tol 1.000e-09"),
    (lambda: MetricTensor(np.ones((2, 3))), DimensionError,
     "expected a square matrix, got shape (2, 3)"),
    (lambda: MetricTensor([[np.nan]]), ValueError, "metric must be finite"),
    (lambda: MetricTensor(_nonsym()), ValueError, "metric must be Hermitian"),
    (lambda: MetricTensor(-np.eye(2)), ValueError, "metric must be positive definite"),
    (lambda: Example1Problem(1.0, 0.5, []), DimensionError, "samples must be a non-empty vector"),
    (lambda: Example1Problem(np.inf, 0.5, [1.0]), ValueError,
     "model parameters and samples must be finite"),
    (lambda: Example1Problem(1.0, 0.5, [1e200]), ValueError,
     "the squared moments of the model and samples must be finite"),
    (lambda: PolynomialParams([1.0, 2.0], [0.0], [0.0]), DimensionError,
     "coefficient vectors must share a positive length"),
    (lambda: PolynomialParams([1.0], [0.0], [0.0], np.nan), ValueError,
     "polynomial coefficients must be finite"),
    (lambda: SignalModel(2.0, np.eye(2), [1, 1j]), ValueError, "n must be an integer, got 2.0"),
    (lambda: SignalModel(True, np.eye(1), [1]), ValueError, "n must be an integer, got True"),
    (lambda: SignalModel(2, np.eye(3), np.zeros(2)), DimensionError,
     "covariance has shape (3, 3), expected (2, 2)"),
    (lambda: SignalModel(2, np.eye(2), np.zeros(3)), DimensionError,
     "cross moment has shape (3,), expected (2,)"),
    (lambda: SignalModel(1, np.eye(1), np.zeros(1), noise_var=np.nan), ValueError,
     "covariance, cross moment and noise_var must be finite"),
    (lambda: SignalModel(2, _nonsym(), np.zeros(2)), ValueError, "covariance must be Hermitian"),
    (lambda: SignalModel(2, -np.eye(2), np.zeros(2)), ValueError,
     "covariance must be positive definite"),
    (lambda: SignalModel(1, [[1e-300]], [1e300]), ValueError,
     "the Wiener solution and its output power must be finite"),
    (lambda: SignalModel(1, np.eye(1), np.zeros(1), noise_var=-0.1), ValueError,
     "noise_var must be nonnegative"),
    (lambda: _Weight(np.eye(3), 2), DimensionError, "weight has shape (3, 3), expected square of size 2"),
    (lambda: _Weight(np.ones(3), 2), DimensionError,
     "weight has shape (3,), expected (), (2,) or (2, 2)"),
    (lambda: _Weight(1j, 2), ValueError, "a scalar or diagonal weight must be real"),
    (lambda: _Weight([1.0, 0.0], 2), ValueError,
     "a scalar or diagonal weight must be finite and positive"),
    (lambda: _Weight(_nonsym(), 2), ValueError, "weight must be Hermitian"),
]


@pytest.mark.parametrize("build, exc, message", BAD_INPUTS)
def test_validation_messages(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()


READ_ONLY = {
    ComplexPoint: ("z", lambda: np.array([1.0, 2j])),
    RealCoordinates: ("r", lambda: np.array([1.0, 0.0, 0.0, 2.0])),
    ConjugateCoordinates: ("c", lambda: np.array([1 + 1j, 1 - 1j])),
    MetricTensor: ("omega", lambda: 2.0 * np.eye(2, dtype=complex)),
}


@pytest.mark.parametrize("cls", list(READ_ONLY), ids=lambda c: c.__name__)
def test_coordinate_arrays_are_read_only_copies(cls):
    name, make = READ_ONLY[cls]
    source = make()
    obj = cls(source)
    arr = getattr(obj, name)
    with pytest.raises(ValueError):
        arr[0] = 5.0
    source[0] = 5.0
    assert not np.any(arr == 5.0)


@pytest.mark.parametrize("cls", list(KEYWORD_BUILDS), ids=lambda c: c.__name__)
def test_undeclared_attribute_is_refused(cls):
    obj = KEYWORD_BUILDS[cls]()
    with pytest.raises(AttributeError):
        obj.undeclared = 1.0


def _workarounds(tree: ast.AST):
    """Lines with object.__setattr__, a getattr of a private name given as a string, or isinstance(..., bool).

    The bool test is the count and real decision, which belongs to
    ``coords._number`` alone; its body is not scanned for it.
    """
    helper = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_number"]
    inside = {id(node) for fn in helper for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (
            isinstance(fn, ast.Name)
            and fn.id == "isinstance"
            and len(node.args) == 2
            and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            and id(node) not in inside
        ):
            yield node.lineno, "isinstance(..., bool)"
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "__setattr__"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "object"
        ):
            yield node.lineno, "object.__setattr__"
        if (
            isinstance(fn, ast.Name)
            and fn.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value.startswith("_")
        ):
            yield node.lineno, f"getattr(..., {node.args[1].value!r})"


def test_scan_finds_the_workarounds():
    src = (
        'object.__setattr__(self, "x", 1)\ny = getattr(model, "_wiener")\nz = getattr(m, "n")\n'
        "ok = isinstance(n, bool)\nok = not isinstance(n, (int, bool))\nok = isinstance(n, int)\n"
        "def _number(value):\n    return isinstance(value, bool)\n"
    )
    assert [line for line, _ in _workarounds(ast.parse(src))] == [1, 2, 4, 5]


def test_package_has_no_setattr_or_private_getattr_workarounds():
    sources = sorted(Path(crcalc.__file__).parent.glob("*.py"))
    assert sources
    # The CLI's JSON parsers decide what a config value is on their own.
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in _workarounds(ast.parse(path.read_text(), filename=str(path)))
        if not (path.name == "cli.py" and what == "isinstance(..., bool)")
    ]
    assert found == []


_MODEL = SignalModel(2, np.eye(2), [1, 1j])
_LINEAR = ScalarField(lambda z: float(np.real(z[0])), name="linear")
_SQUARE = VectorField(1, lambda z: z**2, name="square")

#: Every count and real parameter of the library boundary: its name,
#: what it takes, a call taking its value, and values it accepts.
BOUNDARY = [
    ("damping", "real", lambda v: QStrategy("newton", v), [0, 0.5]),
    ("step_size", "real or None", lambda v: OptimizerConfig(step_size=v), [1, 0.5]),
    ("max_iters", "count", lambda v: OptimizerConfig(max_iters=v), [3]),
    ("grad_tol", "real", lambda v: OptimizerConfig(grad_tol=v), [0, 1e-6]),
    ("armijo_beta", "real", lambda v: OptimizerConfig(armijo_beta=v), [0.5]),
    ("armijo_c1", "real", lambda v: OptimizerConfig(armijo_c1=v), [1e-4]),
    ("noise_var", "real", lambda v: Example1Problem.synthesize(1, 0.5j, 2 - 1j, noise_var=v, n_samples=5), [1, 0.25]),
    ("n_samples", "count", lambda v: Example1Problem.synthesize(1, 0.5j, 2 - 1j, n_samples=v), [5]),
    ("seed", "count", lambda v: Example1Problem.synthesize(1, 0.5j, 2 - 1j, n_samples=5, seed=v), [7]),
    ("n", "count", lambda v: SignalModel(v, np.eye(2), [1, 1j]), [2]),
    ("noise_var", "real", lambda v: SignalModel.white([1, 1j], noise_var=v), [1, 0.25]),
    ("seed", "count", lambda v: SignalModel(2, np.eye(2), [1, 1j], seed=v), [7]),
    ("steps", "count", lambda v: draw_signals(_MODEL, v), [5]),
    ("step_size", "real", lambda v: simulate(_MODEL, 10, v), [0.1]),
    ("m", "count", lambda v: VectorField(v, lambda z: z), [2]),
    ("n", "count", lambda v: StructureMatrices(v), [2]),
    ("n", "count", lambda v: MetricTensor.identity(v), [2]),
    ("step", "real or None", lambda v: cogradients_fd(_LINEAR, [1.0], step=v), [1, 1e-3]),
    ("samples", "count", lambda v: is_holomorphic(_SQUARE, center=[0.0], samples=v), [2]),
    ("seed", "count", lambda v: is_holomorphic(_SQUARE, center=[0.0], samples=2, seed=v), [7]),
    ("seed", "count", lambda v: verify_transform_laws(np.eye(1), [1.0], seed=v), [7]),
]
BOUNDARY_IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(BOUNDARY)]

ODD_VALUES = st.one_of(
    st.floats(),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.complex_numbers(),
    st.floats().map(np.array),
    st.integers(-3, 6),
    st.integers(-3, 6).map(np.array),
    st.sampled_from([np.int64(3), np.uint8(2), np.float64(0.5), np.float32(-0.25), np.bool_(True)]),
)


def _takes(kind, value):
    """Whether ``value`` is of the kind a parameter takes: a count, a finite real, or None too."""
    if value is None:
        return kind == "real or None"
    real = kind != "count"
    kinds = (int, float, np.integer, np.floating) if real else (int, np.integer)
    return not isinstance(value, bool) and isinstance(value, kinds) and (not real or np.isfinite(value))


@pytest.mark.parametrize("name, kind, call, accepted", BOUNDARY, ids=BOUNDARY_IDS)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(value=ODD_VALUES)
def test_boundary_gives_a_result_or_an_error_naming_the_parameter(name, kind, call, accepted, value):
    if not _takes(kind, value):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(value)
        return
    # A value of the right kind may still be out of range, or overflow
    # later: the package says so itself, never numpy or Python for it.
    try:
        call(value)
    except (ValueError, CrcalcError) as exc:
        assert Path(traceback.extract_tb(exc.__traceback__)[-1].filename).parent == PACKAGE, repr(exc)


@pytest.mark.parametrize("name, kind, call, accepted", BOUNDARY, ids=BOUNDARY_IDS)
def test_python_and_numpy_numbers_are_accepted(name, kind, call, accepted):
    numpy_types = (np.int64, np.int32, np.uint8) if kind == "count" else (np.float64, np.float32)
    for value in accepted:
        for convert in (lambda v: v, *numpy_types):
            call(convert(value))


#: Values the boundary now refuses that it took, or let fail inside numpy, before.
BOUNDARY_CHANGES = [
    (lambda: QStrategy(damping=np.inf), "damping must be a finite real number, got inf"),
    (lambda: OptimizerConfig(step_size=np.inf), "step_size must be a finite real number, got inf"),
    (lambda: OptimizerConfig(grad_tol=np.inf), "grad_tol must be a finite real number, got inf"),
    (lambda: simulate(_MODEL, 10, np.inf), "step_size must be a finite real number, got inf"),
    (lambda: OptimizerConfig(step_size=True), "step_size must be a finite real number, got True"),
    (lambda: QStrategy(damping=np.array(0.5)), "damping must be a finite real number, got array(0.5)"),
    (lambda: Example1Problem.synthesize(1, 0, 1, n_samples=np.array(5)), "n_samples must be an integer, got array(5)"),
    (lambda: StructureMatrices(np.array(2)), "n must be an integer, got array(2)"),
    (lambda: Example1Problem.synthesize(1, 0, 1, seed=None), "seed must be an integer, got None"),
    (lambda: SignalModel(2, np.eye(2), [1, 1j], seed=-1), "seed must be nonnegative"),
    (lambda: MetricTensor.identity(0), "n must be positive"),
    (lambda: MetricTensor(np.zeros((0, 0))), "metric must not be empty"),
    (lambda: SignalModel(0, np.zeros((0, 0)), np.zeros(0)), "n must be positive"),
    (lambda: _Weight(np.zeros((0, 0)), 0), "weight must not be empty"),
    (lambda: cogradients_fd(_LINEAR, [1.0], step="1"), "step must be a finite real number, got '1'"),
    (lambda: is_holomorphic(_SQUARE, center=[0.0], samples=-1), "samples must be nonnegative"),
]


@pytest.mark.parametrize("call, message", BOUNDARY_CHANGES, ids=[message for _, message in BOUNDARY_CHANGES])
def test_boundary_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
