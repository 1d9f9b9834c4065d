"""Discretized path-space laboratory: Nahm flows, gauge actions, and the
flat hyperkahler structure on paths.

Configurations are quadruples (T0, T1, T2, T3) of algebra-valued paths on a
uniform grid over [0, 1], stored as one complex (4, N+1, m, m) stack whose
slots are the four paths.  The space of configurations is affine, so one
type, ``NahmConfiguration``, serves both for its points and for its tangent
vectors, and every configuration-level operation is one array expression
on the stack.  The machinery here provides

* residuals of the Nahm system  dT1/dt + [T0,T1] + [T2,T3] = 0  (cyclic in
  1,2,3) and of its reduced two-path form  dT1/dt + [T0,T1] = 0,
* the gauge action  g.T0 = g T0 g^-1 - (dg/dt) g^-1,  g.Tj = g Tj g^-1,
* the gauge-fixing linear ODE  dg/dt = g A(t), g(1) = id,  solved for the
  whole path at once by the 4th-order Magnus method: one stacked matrix
  exponential of the per-interval Magnus exponents, then suffix products
  by an odd-even scan.  Each factor is an exponential of an algebra
  element, so the solution stays in the group without reprojection,
* the flat L^2 metric, the first complex structure I and its symplectic
  pairing, the quadratic potential, the endpoint moment map for a
  subgroup split, the circle action rotating (T2, T3), and a RK4
  integrator for the flow itself, which runs on the real coefficient
  vector (T0, T1, T2, T3) in R^{4d}: each stage is one outer product and
  one product with a constant bilinear table of the structure constants.

Derivatives on the grid use 4th-order stencils (one-sided at the ends) so
that residual magnitudes track the integrator's order on analytic data.
Matrix exponentials along a path are taken for the whole (nodes, m, m)
stack in one call (``_expm_stack``), never node by node, and so are
commutators, conjugations and inverses: every pointwise product of paths
is one batched ``@`` on the stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BlowupDetected, ClosureViolation, ContextMismatch,
                     GridMismatch, MalformedInput)
from .liealg import (GroupElement, LieAlgebraContext, _normal_log,
                     membership_defect)

PATH_KINDS = ("group", "algebra", "complex-group", "complex-algebra")


@dataclass(frozen=True)
class GaugePath:
    """Uniformly sampled path of matrices on [0, 1]."""

    values: np.ndarray  # (N+1, m, m)
    kind: str
    context: LieAlgebraContext

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        size = self.context.matrix_size
        if v.ndim != 3 or v.shape[1:] != (size, size) or v.shape[0] < 2:
            raise MalformedInput("path values must be (N+1, m, m) with N >= 1")
        if self.kind not in PATH_KINDS:
            raise MalformedInput(f"unknown path kind {self.kind!r}")
        object.__setattr__(self, "values", v)

    @property
    def grid_size(self):
        return self.values.shape[0] - 1

    @property
    def end(self):
        return self.values[-1]

    def derivative(self):
        """4th-order finite-difference time derivative as a raw array."""
        return path_derivative(self.values, 1.0 / self.grid_size)

    def sup_norm(self):
        return float(np.max(np.linalg.norm(self.values, axis=(1, 2))))

    def group_defect(self):
        """Worst per-node group-membership defect for group-kind paths.

        Read off the polar split m = u exp(i v) that
        ``complexify.group_complexification_inverse`` uses (see
        ``liealg.membership_defect``): the principal logarithm of u must lie
        in the real span of the context's basis, and v must lie in it too
        (complexified kind, G exp(i g)) or vanish (real kind, G).
        """
        if self.kind not in ("group", "complex-group"):
            raise MalformedInput("group_defect applies to group-kind paths")
        return membership_defect(self.context, self.values,
                                 complexified=self.kind == "complex-group")


def _same_grid(*paths):
    sizes = {p.grid_size for p in paths}
    if len(sizes) != 1:
        raise GridMismatch(f"paths on different grids: {sorted(sizes)}")
    ctxs = {id(p.context) for p in paths}
    if len(ctxs) != 1:
        raise ContextMismatch("paths from different contexts")


def constant_path(context, value, grid_size, kind="algebra"):
    reps = np.repeat(np.asarray(value, dtype=complex)[None], grid_size + 1, axis=0)
    return GaugePath(reps, kind, context)


def sampled_path(context, func, grid_size, kind="algebra"):
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    vals = np.array([func(t) for t in ts], dtype=complex)
    return GaugePath(vals, kind, context)


def path_derivative(values, dt):
    """4th-order stencils: central inside, one-sided at the boundary rows."""
    v = np.asarray(values)
    N = v.shape[0] - 1
    if N < 4:
        raise MalformedInput("need at least 5 nodes for 4th-order derivatives")
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * dt)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * dt)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * dt)
    d[-2] = (-v[-5] + 6 * v[-4] - 18 * v[-3] + 10 * v[-2] + 3 * v[-1]) / (12 * dt)
    d[-1] = (3 * v[-5] - 16 * v[-4] + 36 * v[-3] - 48 * v[-2] + 25 * v[-1]) / (12 * dt)
    return d


def _midpoints(values):
    """4th-order midpoint interpolation per grid interval."""
    v = np.asarray(values)
    mids = np.empty((v.shape[0] - 1,) + v.shape[1:], dtype=v.dtype)
    mids[1:-1] = (-v[:-3] + 9 * v[1:-2] + 9 * v[2:-1] - v[3:]) / 16.0
    mids[0] = (5 * v[0] + 15 * v[1] - 5 * v[2] + v[3]) / 16.0
    mids[-1] = (v[-4] - 5 * v[-3] + 15 * v[-2] + 5 * v[-1]) / 16.0
    return mids


# signs of the slots of I X = (-X1, X0, -X3, X2)
_I_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])[:, None, None, None]


def _slot_view(k):
    return property(lambda self: GaugePath(self.values[k], "algebra", self.context),
                    doc=f"Slot {k} as an algebra path viewing the stack.")


class NahmConfiguration:
    """Quadruple of algebra-valued paths on a shared grid: a point of the
    flat configuration space, or a tangent vector to it.

    ``values`` is the complex (4, N+1, m, m) stack of the four paths; the
    slots ``T0``..``T3`` are ``GaugePath`` views of it.  The constructor
    takes four algebra-kind paths and raises MalformedInput on any other.
    """

    __slots__ = ("values", "context")

    def __init__(self, T0, T1, T2, T3):
        if any(p.kind != "algebra" for p in (T0, T1, T2, T3)):
            raise MalformedInput("configuration slots must be algebra-valued paths")
        _same_grid(T0, T1, T2, T3)
        self.values = np.stack([T0.values, T1.values, T2.values, T3.values])
        self.context = T0.context

    @classmethod
    def _from_stack(cls, values, context):
        cfg = object.__new__(cls)
        cfg.values, cfg.context = values, context
        return cfg

    T0, T1, T2, T3 = (_slot_view(k) for k in range(4))

    @property
    def grid_size(self):
        return self.values.shape[1] - 1

    def complex_rotated(self):
        """Action of the first complex structure I: multiplication by i on
        (T0 + i T1, T2 + i T3), i.e. (T0,T1,T2,T3) -> (-T1,T0,-T3,T2)."""
        rotated = self.values[[1, 0, 3, 2]]
        rotated *= _I_SIGNS
        return NahmConfiguration._from_stack(rotated, self.context)


def _commutator_paths(A, B):
    return A @ B - B @ A


def nahm_residual(config):
    """Residual paths of the three cyclic equations, as GaugePaths."""
    T0, T1, T2, T3 = config.values
    dt = 1.0 / config.grid_size
    ctx = config.context
    out = []
    for A, B, C in ((T1, T2, T3), (T2, T3, T1), (T3, T1, T2)):
        resid = (path_derivative(A, dt) + _commutator_paths(T0, A)
                 + _commutator_paths(B, C))
        out.append(GaugePath(resid, "algebra", ctx))
    return tuple(out)


def nahm_residual_sup(config):
    return max(r.sup_norm() for r in nahm_residual(config))


def baby_nahm_residual(T0, T1):
    """Residual of the reduced system dT1/dt + [T0, T1] = 0."""
    _same_grid(T0, T1)
    dt = 1.0 / T1.grid_size
    resid = path_derivative(T1.values, dt) + _commutator_paths(T0.values, T1.values)
    return GaugePath(resid, "algebra", T1.context)


def gauge_transform(g, config):
    """Gauge action: T0 conjugates with a connection shift, Tj conjugate."""
    _same_grid(g, config)
    if g.kind not in ("group", "complex-group"):
        raise MalformedInput("gauge paths must be group-valued")
    gv = g.values
    ginv = np.linalg.inv(gv)
    dg = path_derivative(gv, 1.0 / g.grid_size)
    values = gv @ config.values @ ginv
    values[0] -= dg @ ginv
    return NahmConfiguration._from_stack(values, config.context)


_UNIT_ROUNDOFF = 2.0 ** -53


def _taylor_plan(norm):
    """(degree, squarings) for exp by Taylor series with scaling.

    The squarings bring theta = norm / 2**s down to at most 1/2 (each one
    doubles the rounding error, so none are spent beyond that); the degree
    is then the least q whose remainder relative to exp, at most
    theta**(q+1) / (q+1)! * e**(2 theta), is below unit round-off.
    """
    squarings = int(np.ceil(np.log2(2.0 * norm))) if norm > 0.5 else 0
    theta = norm / 2.0 ** squarings
    degree, bound = 1, 0.5 * theta * theta * np.exp(2.0 * theta)
    while bound > _UNIT_ROUNDOFF:
        degree += 1
        bound *= theta / (degree + 1)
    return degree, squarings


def _expm_stack(X):
    """Exponential of every matrix in a (K, m, m) stack.

    Horner evaluation of one Taylor polynomial followed by repeated
    squaring, with the degree and the number of squarings chosen once from
    the largest 1-norm in the stack (``_taylor_plan``).  The 2**-s scaling
    is folded into the Horner divisors, and all products go through two
    ping-pong buffers.  A non-finite entry makes the whole result NaN.
    """
    X = np.asarray(X, dtype=complex)
    K, m = X.shape[0], X.shape[-1]
    norm = float(np.max(np.abs(X).sum(axis=1), initial=0.0))
    if not np.isfinite(norm):
        return np.full(X.shape, np.nan, dtype=complex)
    degree, squarings = _taylor_plan(norm)
    scale = 2.0 ** -squarings
    out = np.multiply(X, scale / degree)
    spare = np.empty_like(out)
    out.reshape(K, m * m)[:, ::m + 1] += 1.0
    for k in range(degree - 1, 0, -1):
        np.matmul(X, out, out=spare)
        spare *= scale / k
        spare.reshape(K, m * m)[:, ::m + 1] += 1.0
        out, spare = spare, out
    for _ in range(squarings):
        np.matmul(out, out, out=spare)
        out, spare = spare, out
    return out


def _suffix_products(E, out):
    """Write out[k] = E[K-1] ... E[k+1] E[k] for a (K, m, m) stack E.

    Odd-even scan (Blelloch 1990): the pair products P_j = E[2j+1] E[2j]
    (with an unpaired last factor carried over) are scanned recursively into
    the even slots, and each odd slot is one more product, out[2j+1] =
    out[2j+2] E[2j+1].  About 2K products in 2 ceil(log2 K) batched calls.
    out[0] associates as a balanced tree of blocks aligned at 0.
    """
    K = E.shape[0]
    if K == 1:
        out[0] = E[0]
        return
    half = K // 2
    pairs = np.empty((K - half,) + E.shape[1:], dtype=E.dtype)
    np.matmul(E[1::2], E[0:2 * half:2], out=pairs[:half])
    if K % 2:
        pairs[half] = E[K - 1]
    _suffix_products(pairs, out[0::2])
    del pairs
    odd = (K - 1) // 2  # odd slots below the last even one
    np.matmul(out[2::2], E[1:2 * odd:2], out=out[1:2 * odd:2])
    if K % 2 == 0:
        out[K - 1] = E[K - 1]


def solve_gauge_ode(A):
    """Solve dg/dt = g A(t) backward from g(1) = id by 4th-order Magnus.

    Over [t_k, t_k+1] the propagator is g_k = g_k+1 exp(-Omega_k) with the
    Simpson-form exponent

        Omega_k = h/6 (A_k + 4 A_k+1/2 + A_k+1) + h^2/12 [A_k, A_k+1],

    whose commutator sign is the one for right multiplication integrated
    backward (the opposite sign drops the method to order 2).  Midpoint
    samples come from 4th-order interpolation.  All exponentials are one
    stacked call, and g_k = E_N-1 ... E_k are suffix products formed by an
    odd-even scan (``_suffix_products``: about 2N products in
    2 ceil(log2 N) batched calls).  Each factor is the exponential of an
    element of the (complexified) algebra, so the path stays in the group
    by construction; on an abelian algebra the step is exact.
    """
    if A.kind not in ("algebra", "complex-algebra"):
        raise MalformedInput("gauge ODE input must be algebra-valued")
    vals = A.values
    N = A.grid_size
    h = 1.0 / N
    m = A.context.matrix_size
    omega = _midpoints(vals)
    omega *= 4.0
    omega += vals[:-1]
    omega += vals[1:]
    omega *= h / 6.0
    comm = np.matmul(vals[:-1], vals[1:])
    comm -= np.matmul(vals[1:], vals[:-1])
    comm *= h * h / 12.0
    omega += comm
    del comm
    np.negative(omega, out=omega)
    factors = _expm_stack(omega)
    del omega
    g = np.empty((N + 1, m, m), dtype=complex)
    _suffix_products(factors, g[:N])
    g[N] = np.eye(m)
    kind = "complex-group" if A.kind == "complex-algebra" else "group"
    return GaugePath(g, kind, A.context)


def embed_tangent(a, v, grid_size, h_path=None):
    """Path pair (T0, T1) representing the tangent point (a, v).

    With the default interpolating path h(t) = exp((1 - t) log a) the
    connection component is the constant log a and T1(t) = h v h^-1; any
    supplied ``h_path`` must run from a at t = 0 to the identity (or into
    the subgroup) at t = 1.  The pair satisfies the reduced flow equation
    and T1(1) = v for the default path.

    The default path reads L = log a = Z diag(lam) Z* (Z unitary) off the
    one complex Schur form of a that the logarithm takes
    (``liealg._normal_log``), so that T1(t) = Z (exp((1 - t)(lam_i -
    lam_j)) * Z* v Z) Z*.  Raises MalformedInput when a is not normal,
    which no compact group produces.
    """
    ctx = a.context
    v = np.asarray(v, dtype=complex)
    if h_path is None:
        L, Z, lam = _normal_log(a)  # LogBranchFailure propagates
        ts = np.linspace(0.0, 1.0, grid_size + 1)
        Zh = Z.conj().T
        phases = np.exp((1.0 - ts)[:, None, None] * (lam[:, None] - lam[None, :]))
        phases *= Zh @ v @ Z
        T1 = GaugePath(Z @ phases @ Zh, "algebra", ctx)
        return constant_path(ctx, L, grid_size), T1
    if h_path.grid_size != grid_size:
        raise GridMismatch("h_path grid does not match the requested grid")
    hv = h_path.values
    if np.linalg.norm(hv[0] - a.matrix) > 1e-8:
        raise MalformedInput("h_path must start at the base point")
    dh = path_derivative(hv, 1.0 / grid_size)
    hinv = np.linalg.inv(hv)
    T0 = GaugePath(-(dh @ hinv), "algebra", ctx)
    T1 = GaugePath(hv @ v @ hinv, "algebra", ctx)
    return T0, T1


def adapted_roundtrip(a, v, grid_size=2000, h_path=None):
    """Recover the complexified image of (a, v) through the gauge ODE.

    Builds the embedded pair, gauges the complex combination to zero, and
    returns g(0)^-1, which converges at 4th order to a exp(i v).
    """
    T0, T1 = embed_tangent(a, v, grid_size, h_path)
    alpha = GaugePath(T0.values + 1j * T1.values, "complex-algebra", a.context)
    g = solve_gauge_ode(alpha)
    return GroupElement(np.linalg.inv(g.values[0]), a.context, complexified=True)


# -- flat hyperkahler structure ------------------------------------------

def _trapezoid(node_values, N):
    w = np.full(N + 1, 1.0 / N)
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(np.dot(w, node_values))


def _slot_pairing(X, Y, weights, order):
    """Trapezoid integral of sum_k w_k <X_k, Y_order[k]>.

    Each slot is expanded on its own: ``path_coefficients`` returns the real
    view of a complex product, which keeps the whole complex array alive,
    so expanding all slots at once would hold eight of them.
    """
    _same_grid(X, Y)
    ctx = X.context
    N = X.grid_size
    total = np.zeros(N + 1)
    for k, (w, j) in enumerate(zip(weights, order)):
        if w:
            total += w * ctx.pair_coeff_paths(ctx.path_coefficients(X.values[k]),
                                              ctx.path_coefficients(Y.values[j]))
    return _trapezoid(total, N)


def l2_metric(X, Y):
    """Flat path-space metric: integral of the summed pointwise pairings.

    The configuration space is affine, so X and Y are configurations used as
    tangent vectors."""
    return _slot_pairing(X, Y, (1.0, 1.0, 1.0, 1.0), (0, 1, 2, 3))


def omega_I(X, Y):
    """Symplectic pairing of the first complex structure:
    integral of <X0,Y1> - <X1,Y0> + <X2,Y3> - <X3,Y2> for configurations
    X, Y used as tangent vectors."""
    return _slot_pairing(X, Y, (1.0, -1.0, 1.0, -1.0), (1, 0, 3, 2))


def kahler_potential(config):
    """Quadratic potential (1/2)|T1|^2 + (1/4)|T2|^2 + (1/4)|T3|^2 in L^2."""
    return _slot_pairing(config, config, (0.0, 0.5, 0.25, 0.25), (0, 1, 2, 3))


def potential_two_form(config, X, Y, step=1e-3):
    """d(I df)(X, Y) by centered differences of the potential.

    The configuration space is flat, so for constant directions the
    exterior derivative reduces to antisymmetrized directional derivatives
    of lambda(Z) = df(I^-1 Z); each df is itself a centered difference.
    This equals omega_I exactly at the discrete level (the potential is
    quadratic), and matches the continuum pairing at the quadrature order.
    """
    _same_grid(config, X, Y)

    def shift(cfg, direction, eps):
        return NahmConfiguration._from_stack(cfg.values + eps * direction.values,
                                             cfg.context)

    def lam(cfg, Z):
        # df at cfg applied to I^-1 Z = -I Z: the centered difference along
        # I Z with its two sides exchanged
        W = Z.complex_rotated()
        return (kahler_potential(shift(cfg, W, -step))
                - kahler_potential(shift(cfg, W, step))) / (2.0 * step)

    d_x_ly = (lam(shift(config, X, step), Y) - lam(shift(config, X, -step), Y)) \
        / (2.0 * step)
    d_y_lx = (lam(shift(config, Y, step), X) - lam(shift(config, Y, -step), X)) \
        / (2.0 * step)
    return d_x_ly - d_y_lx


def moment_map(config):
    """Endpoint moment map for the subgroup action: subalgebra parts of
    T1(1), T2(1), T3(1)."""
    return tuple(config.context.project_h(M) for M in config.values[1:, -1])


def circle_action(theta, config):
    """Rotate the (T2, T3) pair by theta; fixes (T0, T1)."""
    c, s = np.cos(theta), np.sin(theta)
    v = config.values
    values = v.copy()
    values[2] = c * v[2] - s * v[3]
    values[3] = s * v[2] + c * v[3]
    return NahmConfiguration._from_stack(values, config.context)


# slots (C, B) of the bracket [C_i, B_i] in the right-hand side for Y_i,
# i = 1, 2, 3, of the stage vector z = (a, Y1, Y2, Y3)
_CYCLIC_SLOTS = ((3, 2), (1, 3), (2, 1))


def _nahm_table(context):
    """(16 d^2, 3 d) bilinear table W of the Nahm right-hand side.

    For the real coefficient vector z = (a, Y1, Y2, Y3) in R^{4d} of a
    connection value and a state, (z ⊗ z).ravel() @ W is the coefficient
    vector of (rhs_1, rhs_2, rhs_3), rhs_i = [Y_i, a] + [C_i, B_i] with
    (B_i, C_i) the cyclic successors of Y_i, read off the context's
    structure constants.
    """
    f = context.structure_constants()
    d = context.dim
    W = np.zeros((4, d, 4, d, 3, d))
    for i, (c, b) in enumerate(_CYCLIC_SLOTS):
        W[i + 1, :, 0, :, i] = f
        W[c, :, b, :, i] = f
    return W.reshape(16 * d * d, 3 * d)


def _span_coefficients(context, values, what):
    try:
        return context._span_path_coefficients(values)
    except ClosureViolation as err:
        raise MalformedInput(f"{what} must lie in the real span: {err}") from None


def integrate_nahm(context, initial, T0, norm_bound=1e6):
    """RK4 evolution of the three cyclic equations with prescribed T0.

    ``initial`` supplies (T1, T2, T3) at t = 0; T0 is connection data, not
    evolved.  The flow runs on real coefficients: T0, its midpoints and the
    initial data are expanded once, and with z = (a, Y1, Y2, Y3) in R^{4d}
    the right-hand side is bilinear in z, so each stage is one outer
    product z ⊗ z and one product with a constant (16 d^2, 3 d) table built
    from the structure constants (``_nahm_table``) and scaled by the
    stage's step.  The (4, N+1, m, m) stack is reconstructed once at the
    end.  Raises MalformedInput when T0 or the initial data leave the real
    span, and BlowupDetected naming the first step after which some evolved
    norm leaves the bound or is not finite (the flow genuinely blows up in
    finite time for some data); the norms are read off the finished stack.
    """
    if T0.kind != "algebra":
        raise MalformedInput("T0 must be an algebra-valued path")
    if T0.context is not context:
        raise ContextMismatch("T0 is from a different context")
    N = T0.grid_size
    h = 1.0 / N
    d, m = context.dim, context.matrix_size
    Y0 = np.array([np.asarray(M, dtype=complex) for M in initial])
    if Y0.shape != (3, m, m):
        raise MalformedInput("initial data must be three algebra matrices")
    W = _nahm_table(context)
    # a state that blows up runs on as inf and NaN; the guard reads it below
    with np.errstate(over="ignore", invalid="ignore"):
        a = _span_coefficients(context, T0.values, "T0")
        mids = _midpoints(a)
        stage_a = np.stack([a[:-1], mids, mids, a[1:]], axis=1)  # (N, 4, d)
        coeffs = np.empty((N + 1, 3 * d))
        coeffs[0] = _span_coefficients(context, Y0, "initial data").reshape(-1)
        # with the tables scaled by h/2, h/2, h, h/2 the stages k_s are
        # increments, and the step is (k1 + 2 k2 + k3 + k4) / 3
        half, full = (0.5 * h) * W, h * W
        weights = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0
        z = np.empty((4, 4 * d))  # one stage vector (a, Y1, Y2, Y3) per row
        z_a = z[:, :d]
        z1, z2, z3, z4 = z
        y1, y2, y3, y4 = z[:, d:]
        c1, c2, c3, c4 = z[:, :, None]
        k = np.empty((4, 3 * d))
        k1, k2, k3, k4 = k
        outer = np.empty((4 * d, 4 * d))
        flat = outer.reshape(-1)
        # the loop is bound by call overhead: local names and out= buffers
        mul, dot, add, copyto = np.multiply, np.dot, np.add, np.copyto
        for Y, Y_next, a_stages in zip(coeffs[:-1], coeffs[1:], stage_a):
            copyto(z_a, a_stages)
            copyto(y1, Y)
            mul(c1, z1, out=outer)
            dot(flat, half, out=k1)
            add(Y, k1, out=y2)
            mul(c2, z2, out=outer)
            dot(flat, half, out=k2)
            add(Y, k2, out=y3)
            mul(c3, z3, out=outer)
            dot(flat, full, out=k3)
            add(Y, k3, out=y4)
            mul(c4, z4, out=outer)
            dot(flat, half, out=k4)
            dot(weights, k, out=Y_next)
            add(Y_next, Y, out=Y_next)
        states = context.path_reconstruct(
            coeffs.reshape(N + 1, 3, d).transpose(1, 0, 2).reshape(-1, d))
        values = np.empty((4, N + 1, m, m), dtype=complex)
        values[0] = T0.values
        values[1:] = states.reshape(3, N + 1, m, m)
        norms_sq = (np.abs(values[1:, 1:]) ** 2).sum(axis=(2, 3)).max(axis=0)
    exceeded = np.flatnonzero(~(norms_sq <= norm_bound * norm_bound))
    if exceeded.size:
        raise BlowupDetected(f"flow norm exceeded {norm_bound:.1e} or is not "
                             f"finite at step {exceeded[0] + 1}")
    return NahmConfiguration._from_stack(values, context)


# -- smooth random data helpers ------------------------------------------

def smooth_gauge(context, rng, grid_size, amplitude=0.5, endpoints="free"):
    """Random smooth group path; ``endpoints`` picks the boundary behavior.

    "free": no constraint; "loop": identity at both ends; "subgroup":
    identity at t = 0 and a subgroup element at t = 1.
    """
    d = context.dim
    c1 = rng.standard_normal(d) * amplitude
    c2 = rng.standard_normal(d) * amplitude
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    if endpoints == "loop":
        profiles = [np.sin(np.pi * ts), ts * (1.0 - ts)]
    elif endpoints == "subgroup":
        context._require_split()
        c_end = np.where(context.h_mask, rng.standard_normal(d) * amplitude, 0.0)
        profiles = [np.sin(np.pi * ts), ts * ts]
        c2 = c_end
    else:
        profiles = [np.cos(0.5 * np.pi * ts), np.sin(1.5 * ts)]
    coeffs = np.outer(profiles[0], c1) + np.outer(profiles[1], c2)
    return GaugePath(_expm_stack(context.path_reconstruct(coeffs)), "group", context)


def smooth_tangent(context, rng, grid_size, amplitude=1.0):
    """Random analytic configuration (trig profiles per slot), used as a
    point or as a tangent direction."""
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    prof2 = np.sin(np.pi * ts)[:, None, None]
    m = context.matrix_size
    values = np.empty((4, grid_size + 1, m, m), dtype=complex)
    for slot in values:
        c1 = context.random_element(rng, amplitude)
        c2 = context.random_element(rng, amplitude)
        freq = rng.integers(1, 4)
        slot[...] = np.cos(np.pi * freq * ts)[:, None, None] * c1 + prof2 * c2
    return NahmConfiguration._from_stack(values, context)
