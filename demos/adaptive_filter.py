"""
Stochastic gradient descent as an adaptive filter
=================================================

Replacing the expected gradient of a quadratic loss with its one-sample
estimate gives the classic complex adaptive filter.  The script checks
the stochastic updates against the closed-form solution and shows the
stability limit on the step size.
"""

import numpy as np

from crcalc import (
    SignalModel,
    draw_signals,
    instantaneous_gradient,
    max_stable_step,
    simulate,
    wiener_solution,
)

np.set_printoptions(precision=4, suppress=True)

# Correlated circular inputs with a known mixing vector.
r = np.array(
    [
        [2.0, 0.5 + 0.5j, 0.1 + 0j],
        [0.5 - 0.5j, 2.0, 0.5 + 0.5j],
        [0.1 + 0j, 0.5 - 0.5j, 2.0],
    ]
)
a_ref = np.array([1.0 - 0.5j, 0.25 + 0j, -0.5 + 1.0j])
model = SignalModel.from_reference(r, a_ref, noise_var=0.01, seed=0)

print("closed-form weights:", wiener_solution(model))
print("step size stability bound:", max_stable_step(model))
print()

# One-sample gradients average to the closed-form expected gradient.
a_probe = np.array([0.3 + 0j, 0.0 + 0j, 0.1 - 0.2j])
xi, eta = draw_signals(model, 20000)
mean_grad = np.mean(instantaneous_gradient(a_probe, xi, eta), axis=0)
print("sample-mean gradient:", mean_grad)
print("expected gradient:   ", model.r_matrix @ a_probe - model.p)
print()

# Run the filter from zero weights and watch the misalignment drop.
result = simulate(model, steps=4000, step_size=0.02)
marks = [0, 100, 500, 1000, 2000, 4000]
print("misalignment over time:")
for k in marks:
    print(f"  step {k:>5}: {result.misalignment[k]:.3e}")
print()
print("final estimate:", result.a_hat)
print("reference:     ", a_ref)
print("steady smoothed error power:", result.smoothed_error_power[-1])
