"""
Weighted least squares on a curved model
========================================

For losses of the form residual^H W residual / 2 the curvature splits
into an always-available positive semidefinite part and residual-driven
corrections.  At a zero-residual solution the two coincide, which is
what makes the cheaper approximation useful.
"""

import numpy as np

from crcalc import (
    JacobianPair,
    LsqProblem,
    QStrategy,
    VectorField,
    gauss_newton_quad,
    loss,
    loss_pair,
    minimize,
    newton_quad,
    residual,
)

np.set_printoptions(precision=5, suppress=True)

# A model that is genuinely curved in both z and conj(z).
def model_fn(z):
    return np.array(
        [
            z[0] ** 2 + 0.3 * np.conj(z[1]),
            z[0] * np.conj(z[0]) + z[1],
            0.5 * z[1] ** 2 - z[0],
        ]
    )


def model_jac(z):
    jz = np.array(
        [
            [2.0 * z[0], 0.0],
            [np.conj(z[0]), 1.0],
            [-1.0, z[1]],
        ]
    )
    jzbar = np.array(
        [
            [0.0, 0.3],
            [z[0], 0.0],
            [0.0, 0.0],
        ]
    )
    return JacobianPair(jz, jzbar)


g = VectorField(3, model_fn, jacobian_fn=model_jac, name="curved model")

# Ground truth and consistent observations make a zero-residual problem.
z_true = np.array([0.8 - 0.2j, -0.4 + 0.6j])
w = [1.0, 2.0, 0.5]  # the diagonal of W
problem = LsqProblem(g, g(z_true), w)

z = np.array([0.5 + 0.1j, 0.1 + 0.2j])
print("loss at the start:", loss(problem, z))
print("residuals:", residual(problem, z))
print("derivative row dz:", loss_pair(problem, z).dz)
print()

# Away from the solution the full curvature and its residual-free
# approximation differ by the correction terms.
gn = gauss_newton_quad(problem, z).dense()
hn = newton_quad(problem, z).dense()
print("max |newton - gauss_newton| away from the solution:",
      np.abs(hn - gn).max())

# At the solution the residuals vanish and so do the corrections.
gn0 = gauss_newton_quad(problem, z_true).dense()
hn0 = newton_quad(problem, z_true).dense()
print("max |newton - gauss_newton| at the solution:   ",
      np.abs(hn0 - gn0).max())
print()

# Both scalings drive the same iteration to the same answer.
for kind in ("gauss_newton", "newton"):
    result = minimize(problem, z, QStrategy(kind=kind, damping=1e-6))
    print(f"{kind:<13} converged={result.converged} "
          f"iters={result.iterations} final loss={result.loss:.3e}")
