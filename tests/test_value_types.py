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
import sys
import traceback
import warnings
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
    LsqProblem,
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
    cogradients,
    complex_from_real,
    cogradients_fd,
    descent_step,
    differential,
    draw_signals,
    first_order_predict,
    from_conjugate,
    gauss_newton_quad,
    gradient,
    hessian_quad,
    instantaneous_gradient,
    is_admissible_matrix,
    is_admissible_vector,
    is_holomorphic,
    loss,
    loss_pair,
    matrix_residual,
    minimize,
    newton_quad,
    project_admissible,
    residual,
    second_order_predict,
    simulate,
    stationarity_residual,
    to_conjugate,
    to_real,
    vector_residual,
    verify_transform_laws,
)
from crcalc.coords import as_complex_vector
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
    (lambda: WirtingerPair([1.0], [1.0, 2.0]), DimensionError, "dzbar has length 2, expected 1"),
    (lambda: WirtingerPair(np.eye(2), np.eye(2)), DimensionError, "dz must be a non-empty vector, got shape (2, 2)"),
    (lambda: JacobianPair(np.eye(2), np.eye(3)), DimensionError,
     "jzbar must be a non-empty array of shape (2, 2), got shape (3, 3)"),
    (lambda: HessianQuad(np.eye(2), np.zeros(2)), DimensionError,
     "hzbz must be a non-empty array of shape (2, 2), got shape (2,)"),
    (lambda: HessianQuad(np.ones((2, 3)), np.ones((2, 3))), DimensionError,
     "hzz must be a non-empty array of shape (n,) or (n, n), got shape (2, 3)"),
    (lambda: HessianQuad(np.zeros((0, 0)), np.zeros((0, 0))), DimensionError,
     "hzz must be a non-empty array of shape (n,) or (n, n), got shape (0, 0)"),
    (lambda: HessianQuad([], []), DimensionError,
     "hzz must be a non-empty array of shape (n,) or (n, n), got shape (0,)"),
    (lambda: ComplexPoint(np.eye(2)), DimensionError, "z must be a non-empty vector, got shape (2, 2)"),
    (lambda: ComplexPoint([np.nan]), ValueError, "z must be finite"),
    (lambda: RealCoordinates([1.0, 2.0, 3.0]), DimensionError,
     "expected an even-length real vector, got shape (3,)"),
    (lambda: RealCoordinates([np.inf, 0.0]), ValueError, "r must be finite"),
    (lambda: ConjugateCoordinates([1.0, 2.0, 3.0]), DimensionError,
     "expected an even-length vector, got shape (3,)"),
    (lambda: ConjugateCoordinates([1j, 1j]), InadmissibleVector,
     "conjugate pairing violated: residual 2.000e+00 exceeds tol 1.000e-09"),
    (lambda: MetricTensor(np.ones((2, 3))), DimensionError,
     "omega must be a non-empty array of shape (n, n), got shape (2, 3)"),
    (lambda: MetricTensor([[np.nan]]), ValueError, "metric must be finite"),
    (lambda: MetricTensor(_nonsym()), ValueError, "metric must be Hermitian"),
    (lambda: MetricTensor(-np.eye(2)), ValueError, "metric must be positive definite"),
    (lambda: Example1Problem(1.0, 0.5, []), DimensionError, "samples must be a non-empty vector, got shape (0,)"),
    (lambda: Example1Problem(np.inf, 0.5, [1.0]), ValueError, "alpha must be a finite complex number, got inf"),
    (lambda: Example1Problem(1.0, 0.5, [np.inf]), ValueError, "samples must be finite"),
    (lambda: Example1Problem(1.0, 0.5, [1e200]), ValueError,
     "the squared moments of the model and samples must be finite"),
    (lambda: PolynomialParams([1.0, 2.0], [0.0], [0.0]), DimensionError,
     "conj_diag has length 1, expected 2"),
    (lambda: PolynomialParams([1.0], [0.0], [0.0], np.nan), ValueError,
     "constant must be a finite real number, got nan"),
    (lambda: SignalModel(2.0, np.eye(2), [1, 1j]), ValueError, "n must be an integer, got 2.0"),
    (lambda: SignalModel(True, np.eye(1), [1]), ValueError, "n must be an integer, got True"),
    (lambda: SignalModel(2, np.eye(3), np.zeros(2)), DimensionError,
     "r_matrix must be a non-empty array of shape (2, 2), got shape (3, 3)"),
    (lambda: SignalModel(2, np.eye(2), np.zeros(3)), DimensionError,
     "p has length 3, expected 2"),
    (lambda: SignalModel(1, np.eye(1), np.zeros(1), noise_var=np.nan), ValueError,
     "covariance, cross moment and noise_var must be finite"),
    (lambda: SignalModel(2, _nonsym(), np.zeros(2)), ValueError, "covariance must be Hermitian"),
    (lambda: SignalModel(2, -np.eye(2), np.zeros(2)), ValueError,
     "covariance must be positive definite"),
    (lambda: SignalModel(1, [[1e-300]], [1e300]), ValueError,
     "the Wiener solution and its output power must be finite"),
    (lambda: SignalModel(1, np.eye(1), np.zeros(1), noise_var=-0.1), ValueError,
     "noise_var must be nonnegative"),
    (lambda: _Weight(np.eye(3), 2), DimensionError,
     "w must be a non-empty array of shape () or (2,) or (2, 2), got shape (3, 3)"),
    (lambda: _Weight(np.ones(3), 2), DimensionError,
     "w must be a non-empty array of shape () or (2,) or (2, 2), got shape (3,)"),
    (lambda: _Weight(1j, 2), ValueError, "a scalar or diagonal weight must be real"),
    (lambda: _Weight([1.0, 0.0], 2), ValueError,
     "a scalar or diagonal weight must be finite and positive"),
    (lambda: _Weight(_nonsym(), 2), ValueError, "weight must be Hermitian"),
]


@pytest.mark.parametrize("build, exc, message", BAD_INPUTS)
def test_validation_messages(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()


#: Every array a value type keeps: (build from the source, attribute, source).
READ_ONLY = {
    "ComplexPoint": (ComplexPoint, "z", lambda: np.array([1.0, 2j])),
    "RealCoordinates": (RealCoordinates, "r", lambda: np.array([1.0, 0.0, 0.0, 2.0])),
    "ConjugateCoordinates": (ConjugateCoordinates, "c", lambda: np.array([1 + 1j, 1 - 1j])),
    "MetricTensor": (MetricTensor, "omega", lambda: 2.0 * np.eye(2, dtype=complex)),
    "Example1Problem": (lambda s: Example1Problem(1.0, 0.5j, s), "samples", lambda: np.array([1.0, 2j])),
    "SignalModel-r_matrix": (lambda r: SignalModel(2, r, [1.0, 1j]), "r_matrix", lambda: 2.0 * np.eye(2)),
    "SignalModel-p": (lambda v: SignalModel(2, np.eye(2), v), "p", lambda: np.array([1.0, 1j])),
    "PolynomialParams-quad_diag": (lambda c: PolynomialParams(c, [0.5j], [1.0]), "quad_diag", lambda: np.array([2.0])),
    "PolynomialParams-conj_diag": (lambda d: PolynomialParams([2.0], d, [1.0]), "conj_diag", lambda: np.array([0.5j])),
    "PolynomialParams-linear": (lambda b: PolynomialParams([2.0], [0.5j], b), "linear", lambda: np.array([1.0 + 0j])),
}


@pytest.mark.parametrize("kind", list(READ_ONLY))
def test_coordinate_arrays_are_read_only_copies(kind):
    build, name, make = READ_ONLY[kind]
    source = make()
    obj = build(source)
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


def _inside(tree: ast.AST, names) -> set:
    """ids of the nodes in the functions ``names`` lists, each as ``f`` or as ``Class.f``."""
    found = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in names]
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        found += [fn for fn in cls.body if isinstance(fn, ast.FunctionDef) and f"{cls.name}.{fn.name}" in names]
    return {id(node) for fn in found for node in ast.walk(fn)}


def _workarounds(tree: ast.AST, exempt=("_number",), arrays=("_array",)):
    """Lines with object.__setattr__, a getattr of a private name as a string, isinstance(..., bool) or a coercion.

    The bool test is the count and real decision, which belongs to
    ``coords._number`` alone; the bodies of the ``exempt`` functions are
    not scanned for it.  ``np.atleast_1d``, ``np.atleast_2d`` and an
    ``np.asarray`` or ``np.array`` given a dtype are the array decision,
    which belongs to ``coords._array``; the ``arrays`` functions are not
    scanned for them.
    """
    inside = _inside(tree, exempt)
    inside_arrays = _inside(tree, arrays)
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
        if isinstance(fn, ast.Attribute) and id(node) not in inside_arrays:
            if fn.attr in ("atleast_1d", "atleast_2d"):
                yield node.lineno, fn.attr
            if fn.attr in ("asarray", "array") and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords)):
                yield node.lineno, f"{fn.attr} with a dtype"
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
        "v = np.atleast_1d(x)\ndef _array(value):\n    return np.atleast_1d(np.asarray(value, dtype=complex))\n"
        "class Pair:\n    def __init__(self, dz):\n        self.dz = np.atleast_1d(dz)\n"
        "m = np.atleast_2d(x)\nm = np.asarray(x, dtype=complex)\nm = np.array(x, complex)\n"
        "m = np.asarray(x)\nm = np.array([1.0, 2.0])\n"
    )
    assert sorted(line for line, _ in _workarounds(ast.parse(src))) == [1, 2, 4, 5, 9, 14, 15, 16, 17]
    flagged = _workarounds(ast.parse(src), arrays=("_array", "Pair.__init__"))
    assert sorted(line for line, _ in flagged) == [1, 2, 4, 5, 9, 15, 16, 17]


def test_package_has_no_setattr_or_private_getattr_workarounds():
    sources = sorted(Path(crcalc.__file__).parent.glob("*.py"))
    assert sources
    # The CLI reads counts and reals through ``_number`` too; only its
    # complex and boolean parsers tell a JSON boolean apart themselves.
    exempt = {"cli.py": ("_parse_complex", "_parse_bool")}
    # Outside the array rule, only what a field's callback returns is read with a dtype.
    arrays = {
        "coords.py": ("_array",),
        "wirtinger.py": ("VectorField.__call__", "ScalarField._evaluate_stack"),
    }
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in _workarounds(
            ast.parse(path.read_text(), filename=str(path)),
            ("_number", *exempt.get(path.name, ())),
            arrays.get(path.name, ()),
        )
    ]
    assert found == []


_MODEL = SignalModel(2, np.eye(2), [1, 1j])
_MAX_INDEX = np.iinfo(np.intp).max
_LINEAR = ScalarField(lambda z: float(np.real(z[0])), name="linear")
_SQUARE = VectorField(1, lambda z: z**2, name="square")

#: Every count and real parameter of the library boundary: its name,
#: what it takes, a call taking its value, and values it accepts.  A
#: size is a count that sizes an array or a loop.
BOUNDARY = [
    ("damping", "real", lambda v: QStrategy("newton", v), [0, 0.5]),
    ("step_size", "real or None", lambda v: OptimizerConfig(step_size=v), [1, 0.5]),
    ("max_iters", "count", lambda v: OptimizerConfig(max_iters=v), [3]),
    ("grad_tol", "real", lambda v: OptimizerConfig(grad_tol=v), [0, 1e-6]),
    ("armijo_beta", "real", lambda v: OptimizerConfig(armijo_beta=v), [0.5]),
    ("armijo_c1", "real", lambda v: OptimizerConfig(armijo_c1=v), [1e-4]),
    ("noise_var", "real", lambda v: Example1Problem.synthesize(1, 0.5j, 2 - 1j, noise_var=v, n_samples=5), [1, 0.25]),
    ("n_samples", "size", lambda v: Example1Problem.synthesize(1, 0.5j, 2 - 1j, n_samples=v), [5]),
    ("seed", "count", lambda v: Example1Problem.synthesize(1, 0.5j, 2 - 1j, n_samples=5, seed=v), [7]),
    ("n", "count", lambda v: SignalModel(v, np.eye(2), [1, 1j]), [2]),
    ("noise_var", "real", lambda v: SignalModel.white([1, 1j], noise_var=v), [1, 0.25]),
    ("seed", "count", lambda v: SignalModel(2, np.eye(2), [1, 1j], seed=v), [7]),
    ("steps", "size", lambda v: draw_signals(_MODEL, v), [5]),
    ("step_size", "real", lambda v: simulate(_MODEL, 10, v), [0.1]),
    ("m", "size", lambda v: VectorField(v, lambda z: z), [2]),
    ("n", "size", lambda v: StructureMatrices(v), [2]),
    ("n", "size", lambda v: MetricTensor.identity(v), [2]),
    ("step", "real or None", lambda v: cogradients_fd(_LINEAR, [1.0], step=v), [1, 1e-3]),
    ("samples", "size", lambda v: is_holomorphic(_SQUARE, center=[0.0], samples=v), [2]),
    ("seed", "count", lambda v: is_holomorphic(_SQUARE, center=[0.0], samples=2, seed=v), [7]),
    ("seed", "count", lambda v: verify_transform_laws(np.eye(1), [1.0], seed=v), [7]),
    ("tol", "real", lambda v: ConjugateCoordinates([1j, -1j], tol=v), [0, 1e-9]),
    ("tol", "real", lambda v: from_conjugate([1j, -1j], tol=v), [0, 1e-9]),
    ("tol", "real", lambda v: is_admissible_vector([1j, -1j], tol=v), [0, 1e-9]),
    ("tol", "real", lambda v: is_admissible_matrix(np.eye(2), tol=v), [0, 1e-9]),
    ("tol", "real or None", lambda v: is_holomorphic(_SQUARE, [[1.0]], tol=v), [0, 1e-9]),
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
    st.sampled_from([10**400, -(10**400)]),
)


def _takes(kind, value):
    """Whether ``value`` is of the kind a parameter takes: a count, a size, a finite real, or None too.

    A Python integer past the largest float is a count but not a finite
    real, and past numpy's largest index not a size either.
    """
    if value is None:
        return kind == "real or None"
    real = kind not in ("count", "size")
    kinds = (int, float, np.integer, np.floating) if real else (int, np.integer)
    if isinstance(value, bool) or not isinstance(value, kinds):
        return False
    if kind == "size":
        return value <= np.iinfo(np.intp).max
    return not real or (abs(value) <= sys.float_info.max if isinstance(value, int) else bool(np.isfinite(value)))


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
    numpy_types = (np.int64, np.int32, np.uint8) if kind in ("count", "size") else (np.float64, np.float32)
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
    (lambda: MetricTensor(np.zeros((0, 0))), "omega must be a non-empty array of shape (n, n), got shape (0, 0)"),
    (lambda: SignalModel(0, np.zeros((0, 0)), np.zeros(0)), "n must be positive"),
    (lambda: VectorField(0, lambda z: z), "m must be positive"),
    (lambda: VectorField(-3, lambda z: z), "m must be positive"),
    (lambda: _Weight(np.zeros((0, 0)), 0),
     "w must be a non-empty array of shape () or (0,) or (0, 0), got shape (0, 0)"),
    (lambda: cogradients_fd(_LINEAR, [1.0], step="1"), "step must be a finite real number, got '1'"),
    (lambda: is_holomorphic(_SQUARE, center=[0.0], samples=-1), "samples must be nonnegative"),
    (lambda: minimize(_LINEAR, [1.0], QStrategy("newton", damping=10**400)),
     f"damping must be a finite real number, got {10**400}"),
    (lambda: is_holomorphic(_SQUARE, [[1.0]], tol=np.nan), "tol must be a finite real number, got nan"),
    (lambda: ConjugateCoordinates([1j, -1j], tol=None), "tol must be a finite real number, got None"),
    (lambda: from_conjugate([1j, -1j], tol=-1e-9), "tol must be nonnegative"),
    (lambda: Example1Problem.synthesize(1, 0, 1, n_samples=10**400), f"n_samples must be at most {_MAX_INDEX}"),
    (lambda: draw_signals(_MODEL, 10**400), f"steps must be at most {_MAX_INDEX}"),
    (lambda: VectorField(10**400, lambda z: z), f"m must be at most {_MAX_INDEX}"),
    (lambda: StructureMatrices(10**400), f"n must be at most {_MAX_INDEX}"),
    (lambda: MetricTensor.identity(10**400), f"n must be at most {_MAX_INDEX}"),
    (lambda: is_holomorphic(_SQUARE, center=[0.0], samples=10**400), f"samples must be at most {_MAX_INDEX}"),
]


@pytest.mark.parametrize("call, message", BOUNDARY_CHANGES, ids=[message[:80] for _, message in BOUNDARY_CHANGES])
def test_boundary_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _quietly(fn):
    """``fn`` under np.errstate(all="ignore"): a test field's arithmetic on NaN or inf is no package warning."""

    def quiet(z):
        with np.errstate(all="ignore"):
            return fn(z)

    return quiet


_BOWL = ScalarField(_quietly(lambda z: float(np.real(np.vdot(z, z)))), name="bowl")
_BOWL_ROW = ScalarField(_BOWL.fn, cogradient_fn=lambda z: WirtingerPair(np.conj(z), z), name="bowl with its row")
_SUMSQ = VectorField(1, _quietly(lambda z: np.array([np.sum(z * z)])), name="sum of squares")
_FIT = LsqProblem(_SUMSQ, [1.0])
_PAIR = JacobianPair(np.eye(2), np.zeros((2, 2)))

#: Every point, step, observation and tap parameter of the library
#: boundary: its name, what it takes (None standing for a default), the
#: names a length mismatch may blame instead, the length it must have if
#: any, and a call taking its value.
VECTORS = [
    ("point", "complex", (), None, as_complex_vector),
    ("z", "complex", (), None, ComplexPoint),
    ("r", "real", (), None, RealCoordinates),
    ("c", "complex", (), None, ConjugateCoordinates),
    ("p", "complex", (), None, to_real),
    ("p", "complex", (), None, to_conjugate),
    ("c", "complex", (), None, from_conjugate),
    ("p", "complex", (), None, lambda v: verify_transform_laws(np.eye(2), v)),
    ("p", "complex", (), None, _BOWL),
    ("p", "complex", (), None, _SUMSQ),
    ("p", "complex", (), None, lambda v: cogradients_fd(_BOWL, v)),
    ("p", "complex", (), None, lambda v: cogradients(_BOWL_ROW, v)),
    ("p", "complex", (), None, lambda v: cogradients(_SUMSQ, v)),
    ("points", "complex", (), None, lambda v: is_holomorphic(_SUMSQ, [v])),
    ("center", "complex or None", (), None, lambda v: is_holomorphic(_SUMSQ, center=v, samples=2)),
    ("p", "complex", (), None, lambda v: gradient(_BOWL, v)),
    ("p", "complex", (), None, lambda v: stationarity_residual(_BOWL, v)),
    ("p", "complex", ("delta_z",), 1, lambda v: first_order_predict(_BOWL, v, [0.1])),
    ("delta_z", "complex", (), 1, lambda v: first_order_predict(_BOWL, [1.0], v)),
    ("delta_z", "complex", (), 2, lambda v: differential(_PAIR, v)),
    ("p", "complex", (), None, lambda v: hessian_quad(_BOWL, v)),
    ("p", "complex", (), None, lambda v: hessian_quad(_BOWL_ROW, v)),
    ("p", "complex", ("delta_z",), 1, lambda v: second_order_predict(_BOWL, v, [0.1])),
    ("delta_z", "complex", (), 1, lambda v: second_order_predict(_BOWL, [1.0], v)),
    ("y", "complex", (), 1, lambda v: LsqProblem(_SUMSQ, v)),
    ("p", "complex", (), None, lambda v: residual(_FIT, v)),
    ("p", "complex", (), None, lambda v: loss(_FIT, v)),
    ("p", "complex", (), None, lambda v: loss_pair(_FIT, v)),
    ("p", "complex", (), None, lambda v: gauss_newton_quad(_FIT, v)),
    ("p", "complex", (), None, lambda v: newton_quad(_FIT, v)),
    ("p", "complex", (), None, lambda v: descent_step(_BOWL, v)),
    ("z0", "complex", (), None, lambda v: minimize(_BOWL, v)),
    ("z0", "complex", (), None, lambda v: minimize(_FIT, v, QStrategy("gauss_newton"))),
    ("samples", "complex", (), None, lambda v: Example1Problem(1.0, 0.5j, v)),
    ("quad_diag", "real", ("conj_diag",), 1, lambda v: PolynomialParams(v, [0.5j], [1.0])),
    ("conj_diag", "complex", (), 1, lambda v: PolynomialParams([2.0], v, [1.0])),
    ("linear", "complex", (), 1, lambda v: PolynomialParams([2.0], [0.5j], v)),
    ("p", "complex", (), 2, lambda v: SignalModel(2, np.eye(2), v)),
    ("a_ref", "complex", ("r_matrix",), 2, lambda v: SignalModel.from_reference(np.eye(2), v)),
    ("a_ref", "complex", (), None, SignalModel.white),
    ("a_hat", "complex", ("xi",), 2, lambda v: instantaneous_gradient(v, [1.0, 1j], 0.5)),
    ("a_ref", "complex or None", (), 2, lambda v: draw_signals(_MODEL, 3, a_ref=v)),
    ("a_ref", "complex or None", (), 2, lambda v: simulate(_MODEL, 3, 0.1, a_ref=v)),
    ("a0", "complex or None", (), 2, lambda v: simulate(_MODEL, 3, 0.1, a0=v)),
]
VECTOR_IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(VECTORS)]

#: Values the vector rule refuses: no entries, more than one dimension,
#: text, None, bools, objects and integers numpy cannot hold.
NOT_VECTORS = [
    [], (), np.zeros(0), np.zeros(0, dtype=complex), np.eye(2), [[1.0]], np.zeros((1, 1, 1), dtype=complex),
    "1+1j", ["a"], b"1", None, True, np.bool_(False), [True, False], np.array([True]),
    [10**400], [1.0, -(10**400)], np.array([1.0], dtype=object), [1.0, [2.0, 3.0]], object(),
]

#: Values it takes, each of length 1 to 3, finite or not.
VECTOR_VALUES = st.one_of(
    st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False), min_size=1, max_size=3),
    st.lists(st.sampled_from([np.nan, np.inf, -np.inf, complex(1.0, np.inf), 0.5]), min_size=1, max_size=3),
    st.lists(st.floats(-4, 4), min_size=1, max_size=3).map(np.array),
    st.sampled_from([2, 1.5, np.float32(0.5), np.array(0.5), (1.0, 2.0), np.arange(3), np.ones(2, dtype=np.uint8)]),
    st.sampled_from([np.array([1.0, 2j]), ComplexPoint([1j, 0.5])]),
)


@pytest.mark.parametrize("name, kind, blame, length, call", VECTORS, ids=VECTOR_IDS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(value=st.one_of(st.sampled_from(NOT_VECTORS), VECTOR_VALUES))
def test_vector_boundary_gives_a_result_or_an_error_naming_the_parameter(name, kind, blame, length, call, value):
    refused = any(value is odd for odd in NOT_VECTORS) and not (value is None and kind == "complex or None")
    arr = None if refused else np.asarray(value.z if isinstance(value, ComplexPoint) else value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused or kind == "real" and arr.dtype.kind == "c":
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                call(value)
        elif length is not None and value is not None and arr.size != length:
            with pytest.raises(ValueError, match=rf"\b({'|'.join((name, *blame))})\b"):
                call(value)
        else:
            # A value the rule takes may still fail a later gate: the package
            # says so itself, never numpy or Python for it.
            try:
                call(value)
            except (ValueError, CrcalcError) as exc:
                assert Path(traceback.extract_tb(exc.__traceback__)[-1].filename).parent == PACKAGE, repr(exc)


#: Vectors the rule now refuses or blames on the parameter: (call, exception type, exact message).
VECTOR_MESSAGES = [
    (lambda: as_complex_vector(None), ValueError, "point must be a vector of complex numbers, got NoneType"),
    (lambda: as_complex_vector(True), ValueError, "point must be a vector of complex numbers, got bool"),
    (lambda: ComplexPoint("1+1j"), ValueError, "z must be a vector of complex numbers, got str"),
    (lambda: to_real([10**400]), ValueError, "p must be a vector of complex numbers, got object"),
    (lambda: cogradients(_BOWL, np.array([10**400])), ValueError, "p must be a vector of complex numbers, got object"),
    (lambda: minimize(_BOWL, ["a"]), ValueError, "z0 must be a vector of complex numbers, got <U1"),
    (lambda: RealCoordinates([1j, 0.0]), ValueError, "r must be a vector of real numbers, got complex128"),
    (lambda: PolynomialParams([2j], [0.0], [0.0]), ValueError,
     "quad_diag must be a vector of real numbers, got complex128"),
    (lambda: hessian_quad(_BOWL, np.zeros(0)), DimensionError, "p must be a non-empty vector, got shape (0,)"),
    (lambda: hessian_quad(_BOWL_ROW, np.zeros(0, dtype=complex)), DimensionError,
     "p must be a non-empty vector, got shape (0,)"),
    (lambda: descent_step(_BOWL, np.zeros(0)), DimensionError, "p must be a non-empty vector, got shape (0,)"),
    (lambda: second_order_predict(_BOWL, [], []), DimensionError, "p must be a non-empty vector, got shape (0,)"),
    (lambda: minimize(_BOWL, np.zeros(0)), DimensionError, "z0 must be a non-empty vector, got shape (0,)"),
    (lambda: from_conjugate([[1j, -1j]]), DimensionError, "c must be a non-empty vector, got shape (1, 2)"),
    (lambda: is_holomorphic(_SQUARE, [[]]), DimensionError, "points must be a non-empty vector, got shape (0,)"),
    (lambda: SignalModel.white([]), DimensionError, "a_ref must be a non-empty vector, got shape (0,)"),
    (lambda: SignalModel.from_reference(np.eye(2), [1.0]), DimensionError,
     "r_matrix must be a non-empty array of shape (1, 1), got shape (2, 2)"),
    (lambda: instantaneous_gradient([1.0], [1.0, 1j], 0.5), DimensionError,
     "xi must be a non-empty array of shape (1,) or (k, 1), got shape (2,)"),
    (lambda: LsqProblem(_SQUARE, [1.0, 2.0]), DimensionError, "y has length 2, expected 1"),
    (lambda: LsqProblem(_SQUARE, [np.nan]), ValueError, "y must be finite"),
    (lambda: second_order_predict(_BOWL, [1.0], [1.0, 2.0]), DimensionError, "delta_z has length 2, expected 1"),
    (lambda: differential(_PAIR, [1.0]), DimensionError, "delta_z has length 1, expected 2"),
    (lambda: draw_signals(_MODEL, 3, a_ref=[1.0]), DimensionError, "a_ref has length 1, expected 2"),
    (lambda: simulate(_MODEL, 3, 0.1, a0=[1.0, 2.0, 3.0]), DimensionError, "a0 has length 3, expected 2"),
]


@pytest.mark.parametrize("call, exc, message", VECTOR_MESSAGES, ids=[m[:80] for *_, m in VECTOR_MESSAGES])
def test_vector_messages(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()


#: Every block, matrix and complex scalar parameter of the library
#: boundary: its name, a call taking its value, the shapes of values it
#: takes (None for a complex number), whether it takes real numbers
#: only, and values of a shape it refuses.
ARRAYS = [
    ("dz", lambda v: WirtingerPair(v, v), [(2,), ()], False, [np.eye(2)]),
    ("dzbar", lambda v: WirtingerPair([1.0, 2.0], v), [(2,)], False, [[1.0], np.eye(2)]),
    ("jz", lambda v: JacobianPair(v, v), [(2, 3)], False, [2.0, [1.0, 2.0]]),
    ("jzbar", lambda v: JacobianPair(np.ones((2, 2)), v), [(2, 2)], False, [np.ones((2, 3)), np.ones(2)]),
    ("hzz", lambda v: HessianQuad(v, v), [(2, 2), (2,), ()], False, [np.ones((2, 3))]),
    ("hzbz", lambda v: HessianQuad(np.eye(2), v), [(2, 2)], False, [np.zeros(2), np.ones((2, 3))]),
    ("hrr", complex_from_real, [(2, 2)], True, [np.ones(4), 1j * np.eye(2)]),
    ("b", vector_residual, [(2,)], False, [np.eye(2)]),
    ("b", is_admissible_vector, [(2,)], False, [np.eye(2)]),
    ("m", matrix_residual, [(2, 2)], False, [np.ones(4), 2.0]),
    ("m", is_admissible_matrix, [(2, 2)], False, [np.ones(4), 2.0]),
    ("m", project_admissible, [(2, 2)], False, [np.ones(4), 2.0]),
    ("omega", MetricTensor, [(2, 2)], False, [np.ones((2, 3)), np.ones(2), 2.0]),
    ("a_matrix", lambda v: verify_transform_laws(v, [1.0, 2.0]), [(2, 2)], False, [np.eye(3), np.ones(2)]),
    ("r_matrix", lambda v: SignalModel(2, v, [1.0, 1j]), [(2, 2)], False, [np.eye(3), np.ones(2)]),
    ("r_matrix", lambda v: SignalModel.from_reference(v, [1.0, 1j]), [(2, 2)], False, [np.eye(3), np.ones(2)]),
    ("xi", lambda v: instantaneous_gradient([1.0, 1j], v, 0.5), [(2,)], False, [[1.0], np.ones((2, 3))]),
    ("eta", lambda v: instantaneous_gradient([1.0, 1j], [1.0, 2.0], v), [()], False, [[0.5, 0.5], np.zeros(1)]),
    ("w", lambda v: _Weight(v, 2), [(), (2,), (2, 2)], False, [np.ones(3), np.eye(3)]),
    ("w", lambda v: LsqProblem(_SUMSQ, [1.0], v), [(), (1,), (1, 1)], False, [np.ones(2), np.eye(2)]),
    ("alpha", lambda v: Example1Problem(v, 0.5j, [1.0, 2j]), None, False, [[1.0], np.array(1.0)]),
    ("beta", lambda v: Example1Problem(1.0, v, [1.0, 2j]), None, False, [[1.0], np.array(1.0)]),
    ("alpha", lambda v: Example1Problem.synthesize(v, 0.5j, 2 - 1j, n_samples=5), None, False, [[1.0]]),
    ("beta", lambda v: Example1Problem.synthesize(1.0, v, 2 - 1j, n_samples=5), None, False, [[1.0]]),
    ("z_true", lambda v: Example1Problem.synthesize(1.0, 0.5j, v, n_samples=5), None, False, [[1.0], np.array(1.0)]),
]
ARRAY_IDS = [f"{i}-{name}" for i, (name, *_) in enumerate(ARRAYS)]

#: Values every one of them refuses: text, None, bools, objects, ragged
#: nestings, no entries, three dimensions and numbers numpy cannot hold.
NOT_ARRAYS = [
    "a", "1+1j", None, True, np.bool_(False), np.array([True, False]), object(), [1.0, [2.0, 3.0]],
    [[1.0], [2.0, 3.0]], [], np.zeros(0), np.zeros((0, 0)), np.zeros((2, 2, 2)), 10**400, [10**400],
    np.array([1.0], dtype=object),
]


def _taken(shapes, real):
    """Finite values of one of ``shapes``, as nested lists or as integer, real or complex arrays; numbers for None."""
    if shapes is None:
        return st.one_of(
            st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
            st.floats(-4, 4),
            st.integers(-3, 3),
            st.sampled_from([np.complex128(1 - 1j), np.float32(0.5), np.int64(2)]),
        )
    entry = st.floats(-4, 4) if real else st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
    return st.sampled_from(shapes).flatmap(
        lambda shape: st.lists(entry, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).flatmap(
            lambda xs: st.sampled_from([np.reshape(xs, shape), np.reshape(xs, shape).tolist(), np.ones(shape, int)])
        )
    )


@pytest.mark.parametrize("name, call, shapes, real, wrong", ARRAYS, ids=ARRAY_IDS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_array_boundary_gives_a_result_or_an_error_naming_the_parameter(name, call, shapes, real, wrong, data):
    value = data.draw(st.one_of(st.sampled_from(NOT_ARRAYS + wrong), _taken(shapes, real)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # A weight of None is the identity.
        if any(value is odd for odd in NOT_ARRAYS + wrong) and not (value is None and name == "w"):
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                call(value)
        else:
            # A value the rule takes may still fail a later gate: the package
            # says so itself, never numpy or Python for it.
            try:
                call(value)
            except (ValueError, CrcalcError) as exc:
                assert Path(traceback.extract_tb(exc.__traceback__)[-1].filename).parent == PACKAGE, repr(exc)


_INF_J = [1.0, complex(0.0, np.inf)]

#: Blocks, matrices, complex scalars, steps and taps the rules now refuse: (call, exception type, exact message).
ARRAY_MESSAGES = [
    (lambda: WirtingerPair(None, None), ValueError, "dz must be a vector of complex numbers, got NoneType"),
    (lambda: WirtingerPair(True, False), ValueError, "dz must be a vector of complex numbers, got bool"),
    (lambda: JacobianPair([], []), DimensionError, "jz must be a non-empty array of shape (m, n), got shape (0,)"),
    (lambda: JacobianPair([1.0, 2.0], [0.0, 0.0]), DimensionError,
     "jz must be a non-empty array of shape (m, n), got shape (2,)"),
    (lambda: JacobianPair(np.ones((1, 1, 1)), np.ones((1, 1, 1))), DimensionError,
     "jz must be a non-empty array of shape (m, n), got shape (1, 1, 1)"),
    (lambda: HessianQuad("a", "b"), ValueError, "hzz must be an array of complex numbers, got str"),
    (lambda: HessianQuad(True, 0.0), ValueError, "hzz must be an array of complex numbers, got bool"),
    (lambda: complex_from_real(1j * np.eye(2)), ValueError, "hrr must be an array of real numbers, got complex128"),
    (lambda: vector_residual([]), DimensionError, "b must be a non-empty vector, got shape (0,)"),
    (lambda: vector_residual(np.eye(2)), DimensionError, "b must be a non-empty vector, got shape (2, 2)"),
    (lambda: is_admissible_vector("a"), ValueError, "b must be a vector of complex numbers, got str"),
    (lambda: matrix_residual(np.ones(4)), DimensionError,
     "m must be a non-empty array of shape (rows, cols), got shape (4,)"),
    (lambda: MetricTensor([[1.0, 2.0], [3.0]]), ValueError, "omega must be an array of complex numbers, got list"),
    (lambda: verify_transform_laws(np.eye(3), [1.0, 2.0]), DimensionError,
     "a_matrix must be a non-empty array of shape (2, 2), got shape (3, 3)"),
    (lambda: instantaneous_gradient([1.0], [1.0], [0.5, 0.5]), DimensionError,
     "eta must be a non-empty array of shape (), got shape (2,)"),
    (lambda: LsqProblem(_SUMSQ, [1.0], w=True), ValueError, "w must be an array of complex numbers, got bool"),
    (lambda: Example1Problem.synthesize(None, 0, 1), ValueError, "alpha must be a finite complex number, got None"),
    (lambda: Example1Problem(True, 0, [1.0]), ValueError, "alpha must be a finite complex number, got True"),
    (lambda: Example1Problem("1+1j", 0, [1.0]), ValueError, "alpha must be a finite complex number, got '1+1j'"),
    (lambda: Example1Problem(1.0, np.array(0.5), [1.0]), ValueError,
     "beta must be a finite complex number, got array(0.5)"),
    (lambda: Example1Problem.synthesize(1, 0, "2-1j"), ValueError,
     "z_true must be a finite complex number, got '2-1j'"),
    (lambda: from_conjugate([1.0, 2.0, 3.0]), DimensionError, "expected an even-length vector, got shape (3,)"),
    (lambda: to_conjugate([np.inf]), ValueError, "c must be finite"),
    (lambda: first_order_predict(_BOWL, [1.0], [np.inf]), ValueError, "delta_z must be finite"),
    (lambda: differential(_PAIR, _INF_J), ValueError, "delta_z must be finite"),
    (lambda: second_order_predict(_BOWL, [1.0], [np.nan]), ValueError, "delta_z must be finite"),
    (lambda: instantaneous_gradient(_INF_J, [1.0, 1j], 0.5), ValueError, "a_hat must be finite"),
    (lambda: SignalModel.from_reference(np.eye(2), _INF_J), ValueError, "a_ref must be finite"),
    (lambda: draw_signals(_MODEL, 3, a_ref=_INF_J), ValueError, "a_ref must be finite"),
    (lambda: simulate(_MODEL, 3, 0.1, a_ref=_INF_J), ValueError, "a_ref must be finite"),
]


@pytest.mark.parametrize("call, exc, message", ARRAY_MESSAGES, ids=[m[:80] for *_, m in ARRAY_MESSAGES])
def test_array_messages(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
