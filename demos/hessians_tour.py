"""
One curvature, four matrices
============================

The second derivatives of a real loss can be arranged as a Hermitian
matrix in the conjugate stack, a row-swapped complex form, or a plain
real Hessian.  All carry the same quadratic expansion; eigenvalues
differ only by a factor of two between the real and complex forms.
"""

import numpy as np

from crcalc import (
    ScalarField,
    assemble,
    check_minimum,
    complex_from_real,
    hessian_quad,
    second_order_predict,
)

np.set_printoptions(precision=5, suppress=True)

# A non-trivial real loss with curvature in every block.
field = ScalarField(
    lambda z: float(np.real(np.conj(z) @ z) + 0.4 * np.real(z[0] ** 2)),
    name="coupled bowl",
)
z = np.array([0.7 - 0.3j])

# The field gives values only, so its real Hessian is differenced from
# 4n^2 + 2n + 1 of them and mapped to the four blocks.
quad = hessian_quad(field, z)
print("Hzz        =", quad.hzz.ravel())
print("Hconj(z)z  =", quad.hzbz.ravel())
print()

# Assembling gives the complex, swapped, and real forms at once.
built = assemble(quad)
print("complex form:")
print(built.hc_complex)
print("real form:")
print(built.hrr)
print()

# Eigenvalues double going from the complex to the real form.
print("eig complex:", np.sort(np.linalg.eigvalsh(built.hc_complex)))
print("eig real:   ", np.sort(np.linalg.eigvalsh(built.hrr)))
print()

# The real form converts back losslessly.
back = complex_from_real(built.hrr)
print("round trip residual:", np.abs(back - built.hc_complex).max())
print()

# All four quadratic expansions predict the same value.
delta = np.array([0.05 + 0.02j])
for rep in ("z", "c-complex", "c-real", "r"):
    print(f"second order in {rep!r}:",
          second_order_predict(field, z, delta, representation=rep))
print("actual:", field(z + delta))
print()

# Curvature classifies stationary points.
print("origin of |z|^2 + 0.4 Re z^2 is a", check_minimum(quad))
