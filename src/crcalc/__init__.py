"""Complex-valued optimization with conjugate-coordinate calculus.

The package treats a real loss of a complex vector through the pair
(z, conj(z)) instead of stacked real and imaginary parts: derivatives
come in conjugate pairs, curvature comes in four structured blocks, and
descent directions stay on the set of valid conjugate-coordinate
vectors by construction.  Modules:

- ``coords``: coordinate maps, admissibility, structure matrices
- ``wirtinger``: first derivatives, holomorphy probes, gradients
- ``hessian``: curvature blocks and their dense representations
- ``optim``: scaled descent, Newton steps, stationary-point tests
- ``lsq``: weighted least squares, Gauss-Newton and Newton curvature
- ``lms``: stochastic descent for the mean-square-error cost
- ``problems``: worked examples with closed-form answers
- ``cli``: the ``crcalc`` command line tool
"""

from .coords import (
    ADMISSIBLE_TOL,
    ComplexPoint,
    ConjugateCoordinates,
    MetricTensor,
    RealCoordinates,
    StructureMatrices,
    TransformReport,
    from_conjugate,
    is_admissible_matrix,
    is_admissible_vector,
    matrix_residual,
    project_admissible,
    swap,
    swap_cols,
    swap_rows,
    to_complex,
    to_conjugate,
    to_real,
    vector_residual,
    verify_transform_laws,
)
from .errors import (
    ConfigError,
    ConjugationMismatch,
    CrcalcError,
    DimensionError,
    Diverged,
    InadmissibleQ,
    InadmissibleVector,
    NonFiniteEvaluation,
    RelationViolation,
    SingularMatrix,
    SingularQ,
    SymmetryViolation,
    Unidentifiable,
)
from .hessian import (
    AssembledHessians,
    HessianQuad,
    assemble,
    complex_from_real,
    hessian_quad,
    real_hessian,
    second_order_predict,
)
from .lms import (
    SignalModel,
    SimulationResult,
    draw_signals,
    instantaneous_gradient,
    max_stable_step,
    simulate,
    wiener_solution,
)
from .lsq import (
    LsqProblem,
    gauss_newton_quad,
    loss,
    loss_field,
    loss_pair,
    newton_quad,
    residual,
)
from .optim import (
    IterationRecord,
    IterationTrace,
    MinimizeResult,
    OptimizerConfig,
    QStrategy,
    StepDiagnostics,
    check_minimum,
    descent_step,
    lagrangian,
    minimize,
)
from .problems import (
    Example1Problem,
    PolynomialParams,
    example1_closed_form,
    example1_expanded_loss,
    example1_loss_field,
    example2_as_lsq,
    polynomial_field,
    polynomial_stationary_point,
)
from .wirtinger import (
    HolomorphyReport,
    JacobianPair,
    ScalarField,
    VectorField,
    WirtingerPair,
    cogradients,
    cogradients_fd,
    compose,
    conjugate_field,
    differential,
    first_order_predict,
    gradient,
    is_holomorphic,
    stationarity_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
