"""Independent oracles shared by the test modules.

Everything here is deliberately built from first principles with plain
numpy so library results can be checked against code that shares no
implementation with the package: dense structure matrices from their
definitions, finite differences taken directly in stacked real
coordinates, and random field families whose derivatives were worked
out by hand and frozen in the builders below.
"""

from __future__ import annotations

import numpy as np

from crcalc.coords import as_complex_vector
from crcalc.errors import Diverged, InadmissibleQ, NonFiniteEvaluation, SingularQ
from crcalc.hessian import FD_FORWARD_STEP, FD_SECOND_STEP, HessianQuad, real_hessian
from crcalc.lsq import LsqProblem, loss_field, residual
from crcalc.optim import DEFAULT_STEP_SIZE, StepDiagnostics, descent_step
from crcalc.wirtinger import (
    JacobianPair,
    ScalarField,
    VectorField,
    WirtingerPair,
    cogradients,
    cogradients_fd,
)


def dense_j(n: int) -> np.ndarray:
    """[[I, iI], [I, -iI]] assembled entry by entry."""
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        out[i, i] = 1.0
        out[i, n + i] = 1j
        out[n + i, i] = 1.0
        out[n + i, n + i] = -1j
    return out


def dense_s(n: int) -> np.ndarray:
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[i, n + i] = 1.0
        out[n + i, i] = 1.0
    return out


def dense_c(n: int) -> np.ndarray:
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        out[i, i] = 1.0
        out[n + i, n + i] = -1.0
    return out


def z_to_r(z: np.ndarray) -> np.ndarray:
    return np.concatenate([np.real(z), np.imag(z)])


def r_to_z(r: np.ndarray) -> np.ndarray:
    n = r.shape[0] // 2
    return r[:n] + 1j * r[n:]


def real_fd_gradient(f_of_r, r: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Plain central differences of a real function of real coordinates."""
    r = np.asarray(r, dtype=float)
    out = np.empty(r.shape[0])
    for i in range(r.shape[0]):
        step = np.zeros_like(r)
        step[i] = h * max(1.0, abs(r[i]))
        out[i] = (f_of_r(r + step) - f_of_r(r - step)) / (2.0 * step[i])
    return out


def real_fd_hessian(f_of_r, r: np.ndarray, h: float = 2e-4) -> np.ndarray:
    """Symmetric second differences of a real function of real coordinates."""
    r = np.asarray(r, dtype=float)
    dim = r.shape[0]
    out = np.empty((dim, dim))
    steps = [h * max(1.0, abs(r[i])) for i in range(dim)]
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = steps[i]
        for j in range(i, dim):
            ej = np.zeros(dim)
            ej[j] = steps[j]
            val = (
                f_of_r(r + ei + ej)
                - f_of_r(r + ei - ej)
                - f_of_r(r - ei + ej)
                + f_of_r(r - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
            out[i, j] = val
            out[j, i] = val
    return out


def random_poly_vector_field(rng: np.random.Generator, n: int, m: int, scale: float = 0.5, holomorphic: bool = False) -> VectorField:
    """Random map with hand-derived analytic derivative blocks.

    Component i is

        sum_j  A[i,j] z_j + B[i,j] conj(z_j) + C[i,j] z_j^2
             + D[i,j] conj(z_j)^2 + E[i,j] z_j conj(z_j)

    so d/dz_j = A + 2 C z_j + E conj(z_j) and
    d/dconj(z_j) = B + 2 D conj(z_j) + E z_j.  With ``holomorphic``
    the B, D, E coefficients are zeroed.
    """

    def draw():
        return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))

    a, b, c, d, e = draw(), draw(), draw(), draw(), draw()
    if holomorphic:
        b = np.zeros_like(b)
        d = np.zeros_like(d)
        e = np.zeros_like(e)

    def fn(z):
        zc = np.conj(z)
        return a @ z + b @ zc + c @ z**2 + d @ zc**2 + e @ (z * zc)

    def jac(z):
        zc = np.conj(z)
        jz = a + 2.0 * c * z[None, :] + e * zc[None, :]
        jzbar = b + 2.0 * d * zc[None, :] + e * z[None, :]
        return JacobianPair(jz, jzbar)

    return VectorField(m, fn, jacobian_fn=jac, name="random polynomial map")


def random_quadratic_loss(rng: np.random.Generator, n: int, scale: float = 0.5, definite: bool = False):
    """Random real quadratic with frozen analytic derivatives.

    The loss is

        e0 + Re{a^H z} + z^H P z + Re{z^T Q z}

    with P Hermitian and Q symmetric, giving the hand-derived rows

        df/dz = a^H / 2 + z^H P + z^T Q

    and constant curvature blocks (P, conj(Q), Q, conj(P)).  With
    ``definite`` a multiple of the identity is added to P so the full
    curvature is positive definite.

    Returns
    -------
    field : ScalarField
    quad : HessianQuad
        The frozen curvature blocks.
    """
    a = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    p_raw = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    p = 0.5 * (p_raw + p_raw.conj().T)
    q_raw = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = 0.5 * (q_raw + q_raw.T)
    e0 = float(rng.standard_normal())
    if definite:
        shift = float(np.linalg.norm(p) + np.linalg.norm(q)) + 1.0
        p = p + shift * np.eye(n)

    def fn(z):
        zc = np.conj(z)
        return (
            e0
            + float(np.real(np.conj(a) @ z))
            + float(np.real(zc @ p @ z))
            + float(np.real(z @ q @ z))
        )

    def cograd(z):
        dz = 0.5 * np.conj(a) + np.conj(z) @ p + z @ q
        return WirtingerPair(dz, np.conj(dz))

    def hess(z):
        return HessianQuad(p, np.conj(q))

    field = ScalarField(fn, cogradient_fn=cograd, hessian_fn=hess, name="random quadratic loss")
    return field, HessianQuad(p, np.conj(q))


def quartic_norm_field(with_analytic: bool = False) -> ScalarField:
    """The loss (z^H z)^2 with hand-derived derivatives.

    df/dz = 2 (z^H z) z^H, curvature blocks
    Hzz = 2 ||z||^2 I + 2 z z^H and Hzbz = 2 z z^T.  The analytic
    blocks are built exactly Hermitian and symmetric: each lower
    triangle mirrors the upper one, and the diagonal of Hzz is real,
    2 ||z||^2 + 2 |z_k|^2, since a complex product z_k conj(z_k) need
    not round to a real number.
    """
    def fn(z):
        return float(np.real(np.conj(z) @ z)) ** 2

    cograd = None
    hess = None
    if with_analytic:
        def cograd(z):
            dz = 2.0 * float(np.real(np.conj(z) @ z)) * np.conj(z)
            return WirtingerPair(dz, np.conj(dz))

        def hess(z):
            nrm2 = float(np.real(np.conj(z) @ z))
            upper = np.triu(2.0 * np.outer(z, np.conj(z)), 1)
            hzz = upper + upper.conj().T + np.diag(2.0 * nrm2 + 2.0 * np.abs(z) ** 2)
            upper = np.triu(2.0 * np.outer(z, z))
            hzbz = upper + np.triu(upper, 1).T
            return HessianQuad(hzz, hzbz)

    return ScalarField(fn, cogradient_fn=cograd, hessian_fn=hess, name="squared norm squared")


class ConvexQuartic:
    """f = q + q^2 / 4 with q(z) = u^H P u + Re(u^T D u), u = z - center.

    The family of the benchmark's differenced field: P Hermitian
    positive definite and D complex symmetric and small, so q is a
    positive definite quadratic in (Re z, Im z) and f is smooth,
    strictly convex and quartic, with its minimum at the center.  With
    g = dq/dz = u^H P + u^T D the hand-derived derivatives are

        df/dz = (1 + q/2) g
        A = (1 + q/2) P + g^H g / 2
        B = (1 + q/2) conj(D) + g^H conj(g) / 2

    where g^H g is the outer product conj(g) g^T.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        m = random_complex_matrix(rng, n, n, 1.0 / np.sqrt(2.0 * n))
        self.p = m.conj().T @ m + 0.5 * np.eye(n)
        d = random_complex_matrix(rng, n, n, 0.15 / n)
        self.d = 0.5 * (d + d.T)
        self.center = random_complex_vector(rng, n, 1.5)

    def q_and_row(self, z):
        u = z - self.center
        q = float(np.real(np.conj(u) @ self.p @ u) + np.real(u @ self.d @ u))
        return q, np.conj(u) @ self.p + u @ self.d

    def fn(self, z):
        q = self.q_and_row(z)[0]
        return q + 0.25 * q * q

    def row(self, z):
        q, g = self.q_and_row(z)
        dz = (1.0 + 0.5 * q) * g
        return WirtingerPair(dz, np.conj(dz))

    def blocks(self, z):
        q, g = self.q_and_row(z)
        a = (1.0 + 0.5 * q) * self.p + 0.5 * np.outer(np.conj(g), g)
        b = (1.0 + 0.5 * q) * np.conj(self.d) + 0.5 * np.outer(np.conj(g), np.conj(g))
        return a, b

    def max_fourth_derivative(self) -> float:
        """A bound on every fourth partial of f in r = (Re z, Im z).

        With Q the real Hessian of q, a fourth partial of q^2 is
        2 (Q_ab Q_cd + Q_ac Q_bd + Q_ad Q_bc), so one of f is at most
        6 max|Q|^2 / 4.
        """
        return 1.5 * float(np.abs(real_hessian(self.p, np.conj(self.d))).max()) ** 2


def nested_fd_blocks(field: ScalarField, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The top pair by differencing a differenced row: 16n^2 field calls.

    Each of the 4n probes of the second differencing is the conjugated
    row differenced from 4n field values; the pair is then symmetrized.
    """
    n = z.shape[0]
    row = VectorField(n, lambda w: np.conj(cogradients_fd(field, w).dz))
    jac = cogradients_fd(row, z, step=FD_SECOND_STEP)
    return 0.5 * (jac.jz + jac.jz.conj().T), 0.5 * (jac.jzbar + jac.jzbar.T)


def per_coordinate_fd_blocks(call, z: np.ndarray, base: float, m: int, centre=None):
    """Central-difference jz and jzbar, one coordinate at a time; forward given ``centre``.

    The stencils the package's batched differencing must reproduce bit
    for bit: for each coordinate in turn, probe +x, -x, +y, -y with the
    steps ``base * max(1, |coordinate|)``, or, given the map's value
    ``centre`` at z, probe +x, +y and difference each against it; then
    form the blocks column by column from the two real partials.
    """
    n = z.shape[0]
    jz = np.empty((m, n), dtype=complex)
    jzbar = np.empty((m, n), dtype=complex)
    for i in range(n):
        hx = base * max(1.0, abs(z[i].real))
        hy = base * max(1.0, abs(z[i].imag))
        ex = np.zeros(n, dtype=complex)
        ex[i] = hx
        ey = np.zeros(n, dtype=complex)
        ey[i] = 1j * hy
        if centre is None:
            dfdx = (call(z + ex) - call(z - ex)) / (2.0 * hx)
            dfdy = (call(z + ey) - call(z - ey)) / (2.0 * hy)
        else:
            dfdx = (call(z + ex) - centre) / hx
            dfdy = (call(z + ey) - centre) / hy
        jz[:, i] = 0.5 * (dfdx - 1j * dfdy)
        jzbar[:, i] = 0.5 * (dfdx + 1j * dfdy)
    return jz, jzbar


def per_coordinate_cogradients_fd(field, z: np.ndarray, step: float):
    """:func:`per_coordinate_fd_blocks` of a scalar or vector field, as (jz, jzbar)."""
    if isinstance(field, ScalarField):
        return per_coordinate_fd_blocks(lambda w: np.array([field(w)]), z, step, 1)
    return per_coordinate_fd_blocks(field, z, step, field.m)


def conjugate_field(field: VectorField) -> VectorField:
    """The pointwise conjugate map, with derivative blocks exchanged.

    If f has blocks (jz, jzbar) then conj(f) has blocks
    (conj(jzbar), conj(jz)).
    """
    jac = None
    if field.jacobian_fn is not None:
        def jac(z, _inner=field.jacobian_fn):
            pair = _inner(z)
            return JacobianPair(np.conj(pair.jzbar), np.conj(pair.jz))

    return VectorField(
        m=field.m,
        fn=lambda z: np.conj(field(z)),
        jacobian_fn=jac,
        name=f"conj({field.name})",
    )


def example1_expanded_loss(problem, z) -> float:
    """The Example 1 loss written out in moments of the data.

    Equal to the direct residual average for every z.
    """
    zz = complex(as_complex_vector(z)[0])
    alpha, beta = problem.alpha, problem.beta
    my, myc = problem.mean_y, problem.mean_conj_y
    twice = (
        problem.mean_abs2
        + alpha * np.conj(beta) * zz**2
        - (alpha * myc + np.conj(beta) * my) * zz
        + (abs(alpha) ** 2 + abs(beta) ** 2) * zz * np.conj(zz)
        - (np.conj(alpha) * my + beta * myc) * np.conj(zz)
        + np.conj(alpha) * beta * np.conj(zz) ** 2
    )
    return 0.5 * float(np.real(twice))


def random_complex_vector(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def random_complex_matrix(rng: np.random.Generator, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))


def stacked_jacobian(problem, z: np.ndarray) -> np.ndarray:
    """The m x 2n model jacobian G = [jz, jzbar], hstacked from the model's cogradients."""
    pair = cogradients(problem.g, z)
    return np.hstack([pair.jz, pair.jzbar])


def dense_weight(problem) -> np.ndarray:
    """A least-squares problem's weight W as a complex m x m matrix.

    A scalar or diagonal weight becomes the diagonal matrix it stands
    for, and a dense weight is returned as stored.
    """
    values = problem._weight.values
    if values.ndim == 2:
        return values
    return np.diag(np.broadcast_to(values, (problem.m,)).astype(complex))


def dense_lsq_curvature(problem, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton and Newton curvature of a least-squares loss, built 2n x 2n.

    The dense recipe the block-wise library path must reproduce bit for
    bit: project the normal matrix G^H W G onto the admissible set with
    the dense swap S and Hermitize it for Gauss-Newton; for Newton,
    subtract the projection of the weighted row (W e) @ conj(G(w)),
    differenced once with W e held fixed, from the unhermitized
    projection; Hermitize; project again.  The row is forward-differenced
    against its value at z (step eps**(1/2)) when the model has an
    analytic jacobian, and central-differenced (step eps**(1/4)) when it
    does not.  The model jacobian is the package's own, so both sides
    start from the same bits.
    """
    s = dense_s(z.shape[0])

    def project(m):
        return 0.5 * (m + s @ np.conj(m) @ s)

    gmat = stacked_jacobian(problem, z)
    w = dense_weight(problem)
    gauss = project(gmat.conj().T @ w @ gmat)
    we = w @ residual(problem, z)
    row = VectorField(2 * z.shape[0], lambda w: we @ np.conj(stacked_jacobian(problem, w)))
    if problem.g.jacobian_fn is None:
        jac = cogradients_fd(row, z, step=FD_SECOND_STEP)
        jz, jzbar = jac.jz, jac.jzbar
    else:
        jz, jzbar = per_coordinate_fd_blocks(row, z, FD_FORWARD_STEP, row.m, centre=row(z))
    newton = gauss - project(np.hstack([jz, jzbar]))
    newton = 0.5 * (newton + newton.conj().T)
    return 0.5 * (gauss + gauss.conj().T), project(newton)


def reference_minimize(target, z0, strategy, config):
    """The scaled descent loop, written out with one branch per exit.

    The loop ``minimize`` must reproduce bit for bit, built on public
    calls only: the loss field, :func:`cogradients` and
    :func:`descent_step`, which recomputes the row and the scaling at
    the same point to the same bits.  Armijo backtracking makes at most
    60 trials, and none along a direction whose slope is not negative;
    the slope is carried as half of itself, Re(dz delta_z), and doubled
    inside the decrease test, so it cannot overflow before the loss
    does.  A loss more than 1e12 above the start diverges, and an
    accepted step that leaves z unchanged bit for bit ends the run as
    ``"no_progress"``.

    Returns ``(z, loss, grad_norm, converged, reason, iterations,
    records)``, each record the tuple ``(iteration, z, loss, grad_norm,
    step_norm, q_condition, q_positive_definite)``.  A divergence raises
    :class:`Diverged` with the records so far as its trace.
    """
    field = loss_field(target) if isinstance(target, LsqProblem) else target
    z = np.array(z0, dtype=complex)
    records = []

    def trial_loss(w):
        try:
            with np.errstate(all="ignore"):
                return field(w)
        except NonFiniteEvaluation:
            return float("inf")

    def record(iteration, loss_at, grad_at, step_norm, diag):
        if config.record_trace:
            records.append(
                (
                    iteration,
                    z.copy(),
                    loss_at,
                    grad_at,
                    step_norm,
                    diag.condition if diag is not None else float("nan"),
                    diag.positive_definite if diag is not None else None,
                )
            )

    alpha0 = config.step_size if config.step_size is not None else DEFAULT_STEP_SIZE[strategy.kind]
    loss_here = trial_loss(z)
    if not np.isfinite(loss_here):
        raise Diverged(f"loss {loss_here!r} at the starting point", trace=records)
    loss_limit = loss_here + 1e12

    reason, converged, iterations = "max_iters", False, 0
    for k in range(config.max_iters + 1):
        pair = cogradients(field, z)
        grad_norm = float(np.max(np.abs(pair.dz), initial=0.0))
        if grad_norm <= config.grad_tol:
            record(k, loss_here, grad_norm, 0.0, None)
            reason, converged = "converged", True
            break
        if k == config.max_iters:
            record(k, loss_here, grad_norm, 0.0, None)
            break
        delta_c, diag = descent_step(target, z, strategy)
        delta_z = delta_c[: z.shape[0]]
        half_slope = float(np.real(pair.dz @ delta_z))
        alpha = alpha0
        if config.backtracking == "armijo":
            if not half_slope < 0.0:
                record(k, loss_here, grad_norm, 0.0, diag)
                reason = "line_search_failed"
                break
            for _ in range(60):
                candidate = z + alpha * delta_z
                loss_new = trial_loss(candidate)
                if loss_new <= loss_here + config.armijo_c1 * alpha * 2.0 * half_slope:
                    break
                alpha *= config.armijo_beta
            else:
                record(k, loss_here, grad_norm, 0.0, diag)
                reason = "line_search_failed"
                break
        else:
            candidate = z + alpha * delta_z
            loss_new = trial_loss(candidate)
        if candidate.tobytes() == z.tobytes():
            record(k, loss_here, grad_norm, 0.0, diag)
            reason = "no_progress"
            break
        record(k, loss_here, grad_norm, float(np.linalg.norm(alpha * delta_z)), diag)
        if not loss_new <= loss_limit:
            raise Diverged(f"loss reached {loss_new!r} at iteration {k}", trace=records)
        z, loss_here, iterations = candidate, loss_new, k + 1
    return z, loss_here, grad_norm, converged, reason, iterations, records


def schur_newton_update(quad: HessianQuad, pair: WirtingerPair) -> np.ndarray:
    """The Newton correction in the n complex unknowns only, the paper's z-only form.

    Eliminates the conjugate half of the 2n x 2n Newton system through
    the Schur complement of the lower-right block:

        delta_z = inv(A - B inv(D) C) (B inv(D) (df/dconj)^H - (df/dz)^H)

    with (A, B, C, D) the curvature blocks.  When the off-diagonal
    blocks vanish this reduces to -inv(A) (df/dz)^H.  It is the same
    step as the full 2n solve, by the block-inverse identity, so it
    checks the library's one Newton solve from another formula.
    """
    a, b = quad.blocks()
    rhs_z = np.conj(pair.dz)
    rhs_zbar = np.conj(pair.dzbar)
    d_inv_c = np.linalg.solve(np.conj(a), np.conj(b))
    d_inv_rhs = np.linalg.solve(np.conj(a), rhs_zbar)
    schur = a - b @ d_inv_c
    return np.linalg.solve(schur, b @ d_inv_rhs - rhs_z)


def dense_pair(a, b):
    """Top blocks (A, B) as n x n matrices, given either so or as diagonals."""
    if np.ndim(a) == 1:
        return np.diag(a), np.diag(b)
    return a, b


def dense_descent_step(z, pair, a, b, kind):
    """The descent step on the dense 2n x 2n real Hessian of (A, B), in either storage.

    The arithmetic the structured path must reproduce: the admissibility
    gate (A Hermitian, B symmetric to 1e-9 relative to the largest
    entry, at least 1), ``eigvalsh`` of :func:`real_hessian` for the
    condition (largest over smallest magnitude, singular past 1 / eps)
    and the definiteness (smallest eigenvalue positive), and ``solve``
    against the real derivative row.  Returns ``(delta_z, diagnostics,
    eigenvalues)``.
    """
    a, b = dense_pair(a, b)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    resid = HessianQuad(a, b).invariant_residual()
    if resid > 1e-9 * scale:
        raise InadmissibleQ(f"{kind} scaling is not Hermitian admissible, residual {resid:.3e}")
    n = z.shape[0]
    hrr = real_hessian(a, b)
    try:
        eigs = np.linalg.eigvalsh(hrr)
    except np.linalg.LinAlgError as exc:
        raise SingularQ(f"{kind} scaling is singular") from exc
    magnitudes = np.abs(eigs)
    smallest = float(magnitudes.min())
    condition = float(magnitudes.max()) / smallest if smallest > 0.0 else float("inf")
    if not np.isfinite(condition) or condition > 1.0 / np.finfo(float).eps:
        raise SingularQ(f"{kind} scaling is numerically singular (condition {condition:.3e})")
    row_r = np.concatenate([(pair.dz + pair.dzbar).real, (pair.dzbar - pair.dz).imag])
    try:
        delta_r = np.linalg.solve(hrr, -row_r)
    except np.linalg.LinAlgError as exc:
        raise SingularQ(f"{kind} scaling is singular") from exc
    delta_z = delta_r[:n] + 1j * delta_r[n:]
    diag = StepDiagnostics(
        kind=kind,
        positive_definite=bool(eigs[0] > 0.0),
        condition=condition,
        predicted_decrease=float(row_r @ delta_r),
    )
    return delta_z, diag, eigs


def dense_check_minimum(quad):
    """Stationary-point class from ``eigvalsh`` of the dense real Hessian.

    The classification the structured path must reproduce: ``"singular"``
    when the spectral radius is zero or the smallest eigenvalue
    magnitude is at most 1e-10 times it, else by the eigenvalue signs.
    """
    quad.check_invariants()
    eigs = np.linalg.eigvalsh(real_hessian(*dense_pair(quad.hzz, quad.hzbz)))
    radius = float(np.max(np.abs(eigs), initial=0.0))
    if radius == 0.0 or float(np.min(np.abs(eigs))) <= 1e-10 * radius:
        return "singular"
    if np.all(eigs > 0.0):
        return "local_min"
    if np.all(eigs < 0.0):
        return "saddle_or_max"
    return "indefinite"


def reference_lms(xi: np.ndarray, eta: np.ndarray, step_size: float, decay: bool = False, a0=None) -> np.ndarray:
    """Every estimate the LMS recursion visits on the given signals, the start first.

    One sample at a time: the error e = eta - a^H xi, the stochastic
    gradient -xi conj(e) of the cost with respect to conj(a), and the
    step a <- a - alpha_k (-xi conj(e)) with alpha_k = step_size / (k + 1)
    under ``decay``.  The recursion runs on past a divergence, so the
    history has steps + 1 rows.
    """
    a = np.zeros(xi.shape[1], dtype=complex) if a0 is None else np.asarray(a0, dtype=complex)
    visited = [a]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(xi.shape[0]):
            alpha = step_size / (k + 1) if decay else step_size
            err = complex(eta[k]) - complex(np.conj(a) @ xi[k])
            a = a - alpha * (-xi[k] * np.conj(err))
            visited.append(a)
    return np.array(visited)


def numpy_scalar_lms_loop(xi: np.ndarray, eta: np.ndarray, step_size: float, decay: bool, a) -> tuple[np.ndarray, np.ndarray]:
    """The LMS loop as ``simulate`` ran it on numpy scalars: every estimate, the start first, and every error.

    The body is kept verbatim from the loop that the 0-d-buffer loop
    replaced, so ``simulate`` can be held to it bit for bit.  It runs on
    past a divergence.
    """
    steps = eta.shape[0]
    mu = step_size / (np.arange(steps) + 1) if decay else np.full(steps, float(step_size))
    estimates = np.empty((steps + 1, a.shape[0]), dtype=complex)
    estimates[0] = a
    errors = np.empty(steps, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            x = xi[k]
            err = eta[k] - np.vdot(a, x)
            errors[k] = err
            a = estimates[k + 1] = a + mu[k] * (x * np.conj(err))
    return estimates, errors


def per_row_lms_trace(path: str, sim) -> None:
    """The LMS trace as the CLI wrote it, one f-string per row."""
    rows = zip(range(1, sim.steps + 1), sim.smoothed_error_power.tolist(), sim.misalignment[1:].tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,err_power_smoothed,misalignment\r\n")
        fh.writelines(f"{k},{p:.17g},{m:.17g}\r\n" for k, p, m in rows)


def reference_fmt_complex(z: complex) -> str:
    """One complex entry as the CLI printed it entry by entry through numpy scalars."""
    re, im = float(np.real(z)), float(np.imag(z))
    sign = "+" if im >= 0 or np.isnan(im) else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}j"


# The values-only Hessian as hessian.py built it chunk by chunk with np.tile,
# frozen so the library's construction can be held to it bit for bit.
def reference_values_only_hessian(field: ScalarField, z: np.ndarray) -> np.ndarray:
    """Real Hessian in r = (Re z, Im z) from the field's values alone.

    With h_i = eps**(1/4) max(1, |r_i|), the diagonal is the 3-point
    stencil (f(+i) - 2 f(r) + f(-i)) / h_i^2 and entry (i, j) off it the
    seven-point stencil

        (f(++) - f(+i) - f(+j) + 2 f(r) - f(-i) - f(-j) + f(--)) / (2 h_i h_j),

    which reuses the diagonal probes: 4n^2 + 2n + 1 probes for n complex
    coordinates.  The field takes them in 2n chunks, one per real
    coordinate i in order: +i, -i, then ++ and -- for each j > i; the
    centre closes the last chunk.  No chunk has more than 4n rows.  The
    upper triangle is mirrored, so the result is symmetric bit for bit.
    """
    n = z.shape[0]
    dim = 2 * n
    r = np.concatenate([z.real, z.imag])
    # fmax, like the builtin max, keeps the base step for a NaN coordinate.
    h = FD_SECOND_STEP * np.fmax(1.0, np.abs(r))
    up, down = r + h, r - h
    f_up, f_down = np.empty(dim), np.empty(dim)
    pair_sums = np.zeros((dim, dim))
    for i in range(dim):
        later = np.arange(i + 1, dim)
        k = 2 * later.size + 2
        rows = np.tile(r, (k + (i == dim - 1), 1))
        rows[:k:2, i] = up[i]
        rows[1:k:2, i] = down[i]
        rows[2 * (later - i), later] = up[later]
        rows[2 * (later - i) + 1, later] = down[later]
        points = np.empty((rows.shape[0], n), dtype=complex)
        points.real, points.imag = rows[:, :n], rows[:, n:]
        values = field._evaluate_stack(points)
        f_up[i], f_down[i] = values[0], values[1]
        pair_sums[i, later] = values[2:k:2] + values[3:k:2]
    centre = values[-1]
    bend = f_up + f_down - 2.0 * centre
    mixed = np.triu((pair_sums - 2.0 * centre - bend[:, None] - bend) / (2.0 * np.outer(h, h)), 1)
    return mixed + mixed.T + np.diag(bend / h**2)
