"""The package's public names, one per line, and their use outside the tests.

``crcalc.__all__`` is every name the package namespace binds without a
leading underscore, its submodules included, so adding, deleting or
renaming a public name shows as one line of this list in the diff.
"""

import re
import types
from pathlib import Path

import crcalc

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "ADMISSIBLE_TOL",
    "AssembledHessians",
    "ComplexPoint",
    "ConfigError",
    "ConjugateCoordinates",
    "ConjugationMismatch",
    "CrcalcError",
    "DimensionError",
    "Diverged",
    "Example1Problem",
    "HessianQuad",
    "HolomorphyReport",
    "InadmissibleQ",
    "InadmissibleVector",
    "IterationRecord",
    "IterationTrace",
    "JacobianPair",
    "LsqProblem",
    "MetricTensor",
    "MinimizeResult",
    "NonFiniteEvaluation",
    "OptimizerConfig",
    "PolynomialParams",
    "QStrategy",
    "RealCoordinates",
    "RelationViolation",
    "ScalarField",
    "SignalModel",
    "SimulationResult",
    "SingularMatrix",
    "SingularQ",
    "StepDiagnostics",
    "StructureMatrices",
    "SymmetryViolation",
    "TransformReport",
    "Unidentifiable",
    "VectorField",
    "WirtingerPair",
    "assemble",
    "check_minimum",
    "cogradients",
    "cogradients_fd",
    "complex_from_real",
    "compose",
    "coords",
    "descent_step",
    "differential",
    "draw_signals",
    "errors",
    "example1_closed_form",
    "example1_loss_field",
    "example2_as_lsq",
    "first_order_predict",
    "from_conjugate",
    "gauss_newton_quad",
    "gradient",
    "hessian",
    "hessian_quad",
    "instantaneous_gradient",
    "is_admissible_matrix",
    "is_admissible_vector",
    "is_holomorphic",
    "lms",
    "loss",
    "loss_field",
    "loss_pair",
    "lsq",
    "matrix_residual",
    "max_stable_step",
    "minimize",
    "newton_quad",
    "optim",
    "polynomial_field",
    "polynomial_stationary_point",
    "problems",
    "project_admissible",
    "real_hessian",
    "residual",
    "second_order_predict",
    "simulate",
    "stationarity_residual",
    "swap",
    "swap_rows",
    "to_conjugate",
    "to_real",
    "vector_residual",
    "verify_transform_laws",
    "wiener_solution",
    "wirtinger",
]


def test_public_names_are_pinned():
    assert sorted(crcalc.__all__) == PUBLIC_NAMES


def _unused_outside_tests(root: Path, names) -> list[str]:
    """The names with no whole-word occurrence outside ``tests/``.

    A use is a line of a ``src/crcalc`` module other than ``__init__.py``
    that is not the name's own ``def``, ``class`` or assignment, or any
    line of ``demos/``, ``bench/`` (its README included) or ``README.md``.
    """
    package = [p for p in sorted((root / "src" / "crcalc").glob("*.py")) if p.name != "__init__.py"]
    package_lines = [line for p in package for line in p.read_text().splitlines()]
    docs = [root / "README.md"]
    for folder in ("demos", "bench"):
        docs += [p for p in sorted((root / folder).rglob("*")) if p.suffix in (".py", ".md")]
    doc_text = "\n".join(p.read_text() for p in docs)
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(?:(?:def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*(?::[^=]*)?=(?!=))")
        if word.search(doc_text) or any(word.search(line) and not own.match(line) for line in package_lines):
            continue
        unused.append(name)
    return unused


def test_every_public_name_is_used_outside_the_tests():
    names = [name for name in crcalc.__all__ if not isinstance(getattr(crcalc, name), types.ModuleType)]
    assert _unused_outside_tests(ROOT, names) == []
