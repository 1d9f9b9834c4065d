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
  by an odd-even scan; the roundtrip reads g(0) alone, by a tree of pair
  products.  Each factor is an exponential of an algebra element, so the
  solution stays in the group without reprojection,
* the flat L^2 metric, the first complex structure I and its symplectic
  pairing, the quadratic potential, the endpoint moment map for a
  subgroup split, the circle action rotating (T2, T3), and a RK4
  integrator for the flow itself, which runs on the real coefficient
  vector (T0, T1, T2, T3) in R^{4d}: each stage is one outer product and
  one product with a constant bilinear table of the structure constants.

Every ``grid_size`` argument passes one check, ``_grid_size``.  Derivatives
on the grid use 4th-order stencils (one-sided at the ends) so
that residual magnitudes track the integrator's order on analytic data.
Matrix exponentials along a path are taken for the whole (nodes, m, m)
stack in one call (``_expm_stack``), never node by node, and so are
commutators, conjugations and inverses.  Every pointwise product of paths
goes through one small-matrix kernel, ``_entry_products``, on entry-major
copies of the stacks: C = A B is summed as m rank-one updates, each one
NumPy multiply over all (i, j) entries and all nodes, so a product costs
2m - 1 vector calls instead of one small matrix product per node.
``_matmul_paths`` and ``_commutator_paths`` are its faces on (..., m, m)
stacks.

The gauge ODE is one entry-major pipeline, shared by ``solve_gauge_ode``
and ``adapted_roundtrip``.  The input path alpha is written once into an
(m, m, N+1) stack; in the roundtrip it comes from L = log a and the
product T1 of ``embed_tangent``, which keeps its BLAS layout so that both
agree bit for bit, with no T0 path.  The midpoints, the Simpson sum, the
commutator, the exponential and the scan or the tree then run on slices of
entry-major stacks, with no node-major round trip.
Every whole-path temporary of that pipeline is a view of one of five
named regions ("alpha", "omega", "bracket", "swap", "spare") of a
thread-local scratch arena (``_scratch``), which every call reuses: a
roundtrip needs about five stacks of (N+1) m^2 entries, and once they
exist it allocates no whole-path array, so it stops faulting fresh pages
in on every call.  Each region grows to the largest request while the
thread's regions hold at most ``_ARENA_CAP_BYTES`` (8 MiB) together; a
request past the cap gets a per-call array.  Threads never share a
region, and no result aliases one: g, g(0)^-1 and the outputs of
``_expm_stack`` and ``smooth_gauge`` are new arrays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (BlowupDetected, ClosureViolation, ContextMismatch,
                     GridMismatch, MalformedInput)
from .liealg import (GroupElement, LieAlgebraContext, _normal_log, group_log,
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


def _grid_size(grid_size):
    """``grid_size`` as an int; MalformedInput unless it is a non-negative
    integral value (64.0 passes; -5, 2.5, NaN and inf do not)."""
    if not (grid_size >= 0 and float(grid_size).is_integer()):
        raise MalformedInput(f"grid_size must be a non-negative integer, not {grid_size!r}")
    return int(grid_size)


def constant_path(context, value, grid_size):
    reps = np.repeat(np.asarray(value, dtype=complex)[None], _grid_size(grid_size) + 1, 0)
    return GaugePath(reps, "algebra", context)


def sampled_path(context, func, grid_size):
    ts = np.linspace(0.0, 1.0, _grid_size(grid_size) + 1)
    vals = np.array([func(t) for t in ts], dtype=complex)
    return GaugePath(vals, "algebra", context)


def path_derivative(values, dt):
    """4th-order stencils: central inside, one-sided at the boundary rows."""
    v = np.asarray(values)
    N = v.shape[0] - 1
    if N < 4:
        raise MalformedInput("need at least 5 nodes for 4th-order derivatives")
    d = np.empty_like(v)
    inner = d[2:-2]  # in place: the stack may be large
    np.subtract(v[3:-1], v[1:-3], out=inner)
    inner *= 8.0
    inner += v[:-4]
    inner -= v[4:]
    inner /= 12 * dt
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * dt)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * dt)
    d[-2] = (-v[-5] + 6 * v[-4] - 18 * v[-3] + 10 * v[-2] + 3 * v[-1]) / (12 * dt)
    d[-1] = (3 * v[-5] - 16 * v[-4] + 36 * v[-3] - 48 * v[-2] + 25 * v[-1]) / (12 * dt)
    return d


def _midpoints(values, out=None):
    """4th-order midpoint interpolation per grid interval along the last
    (node) axis, into ``out`` (new if None)."""
    v = np.asarray(values)
    if v.shape[-1] < 4:
        raise MalformedInput("need at least 4 nodes for 4th-order midpoints")
    if out is None:
        out = np.empty(v.shape[:-1] + (v.shape[-1] - 1,), dtype=v.dtype)
    inner = out[..., 1:-1]
    np.add(v[..., 1:-2], v[..., 2:-1], out=inner)
    inner *= 9.0
    inner -= v[..., :-3]
    inner -= v[..., 3:]
    inner /= 16.0
    out[..., 0] = (5 * v[..., 0] + 15 * v[..., 1] - 5 * v[..., 2] + v[..., 3]) / 16.0
    out[..., -1] = (v[..., -4] - 5 * v[..., -3] + 15 * v[..., -2] + 5 * v[..., -1]) / 16.0
    return out


# -- products of small-matrix stacks --------------------------------------
#
# A stacked ``@`` on (nodes, m, m) arrays pays a fixed cost per node (about
# 0.3 us per 2x2 or 3x3 complex product), so a path of 2000 nodes costs more
# in dispatch than in arithmetic.  Here a stack is copied once into entry-major
# layout (m, m, *nodes), where entry (i, k) is one contiguous node vector, and
# C = A B is summed as m rank-one updates C += A[:, k] B[k, :], each one
# vectorized multiply over all m^2 (i, j) terms and all nodes.  Every one of
# the m^3 entry terms is a node-vector product; the grouping only keeps the
# number of NumPy calls at 2m - 1 per product, whatever the stack size.
# One-off products walk the nodes in blocks of about 128 KB per operand:
# with whole-stack temporaries, a product over 4 x 2001 nodes at m = 4 spent
# more time on fresh pages and cache misses than on arithmetic.

_BLOCK_BYTES = 1 << 17  # entries of one operand per block of ``_blockwise_product``


def _entry_major(A, lead_ndim):
    """Contiguous (m, m, *nodes) copy of a (..., m, m) stack, its node axes
    padded in front with ones to ``lead_ndim`` so that stacks broadcast."""
    A = np.asarray(A)
    A = A.reshape((1,) * (lead_ndim + 2 - A.ndim) + A.shape)
    return A.transpose((lead_ndim, lead_ndim + 1) + tuple(range(lead_ndim))).copy()


def _entry_products(a, b, out, spare):
    """out[i, j] = sum_k a[i, k] b[k, j] on entry-major stacks (m, m, *nodes).

    ``spare`` has the shape of ``out``; neither may overlap ``a`` or ``b``.
    """
    m = a.shape[0]
    np.multiply(a[:, :1], b[None, 0], out=out)
    for k in range(1, m):
        np.multiply(a[:, k:k + 1], b[None, k], out=spare)
        out += spare
    return out


def _node_major(c, out=None):
    """The (*nodes, m, m) stack of an entry-major one, written into ``out``."""
    view = c.transpose(tuple(range(2, c.ndim)) + (0, 1))
    if out is None:
        return view.copy()
    np.copyto(out, view)
    return out


def _matmul_paths(A, B):
    """C_k = A_k B_k over (..., m, m) stacks, broadcast over the node axes.

    A single (m, m) matrix on either side multiplies every node, and an
    (N+1, m, m) path multiplies each slot of a (4, N+1, m, m) stack; at
    least one side must be a stack.  Non-finite entries propagate as in a
    sum of entry products.
    """
    return _blockwise_product(A, B, bracket=False)


def _commutator_paths(A, B):
    """[A_k, B_k] over (..., m, m) stacks, broadcast as in ``_matmul_paths``."""
    return _blockwise_product(A, B, bracket=True)


def _blockwise_product(A, B, bracket):
    """A B, or A B - B A when ``bracket``, as a new array.

    The last node axis is walked in blocks that hold about ``_BLOCK_BYTES``
    of complex entries of one operand; each block of A and B is copied to
    entry-major layout once and multiplied by ``_entry_products``, so the
    temporaries stay small and in cache.
    """
    A, B = np.asarray(A), np.asarray(B)
    nodes = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    m = A.shape[-1]
    out = np.empty(nodes + (m, m), dtype=np.result_type(A, B))
    width = max(1, _BLOCK_BYTES // (16 * m * m * math.prod(nodes[:-1])))
    for start in range(0, nodes[-1], width):
        block = slice(start, start + width)
        # a single matrix, or a stack that broadcasts along that axis, is whole
        a, b = (_entry_major(X[..., block, :, :] if X.ndim > 2 and X.shape[-3] > 1
                             else X, len(nodes)) for X in (A, B))
        c = np.empty((m, m) + np.broadcast_shapes(a.shape[2:], b.shape[2:]),
                     dtype=out.dtype)
        spare = np.empty_like(c)
        _entry_products(a, b, c, spare)
        if bracket:
            c -= _entry_products(b, a, np.empty_like(c), spare)
        _node_major(c, out[..., block, :, :])
    return out


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


def nahm_residual(config):
    """Residual paths of the three cyclic equations, as GaugePaths.

    For the slots Y = (T1, T2, T3) and their cyclic successors
    (B, C) = ((T2, T3, T1), (T3, T1, T2)) the residual is
    dY/dt + [T0, Y] + [B, C], taken on the (3, N+1, m, m) stack at once.
    """
    v = config.values
    Y = v[1:]
    resid = path_derivative(Y.swapaxes(0, 1), 1.0 / config.grid_size).swapaxes(0, 1)
    resid += _commutator_paths(v[0], Y)
    ring = v[[2, 3, 1, 2]]
    resid += _commutator_paths(ring[:3], ring[1:])
    return tuple(GaugePath(r, "algebra", config.context) for r in resid)


def nahm_residual_sup(config):
    return max(r.sup_norm() for r in nahm_residual(config))


def baby_nahm_residual(T0, T1):
    """Residual of the reduced system dT1/dt + [T0, T1] = 0."""
    _same_grid(T0, T1)
    dt = 1.0 / T1.grid_size
    resid = path_derivative(T1.values, dt) + _commutator_paths(T0.values, T1.values)
    return GaugePath(resid, "algebra", T1.context)


def gauge_transform(g, config):
    """Gauge action: T0 conjugates with a connection shift, Tj conjugate.

    The shift -dg g^-1 of a real (``"group"``) gauge is projected onto the
    real span: the difference stencil leaves it by O(h^4), and the
    integrator takes real-span data only."""
    _same_grid(g, config)
    if g.kind not in ("group", "complex-group"):
        raise MalformedInput("gauge paths must be group-valued")
    gv = g.values
    ginv = np.linalg.inv(gv)
    dg = path_derivative(gv, 1.0 / g.grid_size)
    values = _matmul_paths(_matmul_paths(gv, config.values), ginv)
    shift = _matmul_paths(dg, ginv)
    if g.kind == "group":
        shift = g.context.reconstruct(g.context.path_coefficients(shift))
    values[0] -= shift
    return NahmConfiguration._from_stack(values, config.context)


# -- scratch arena of the gauge ODE -----------------------------------------
#
# Fresh whole-path arrays come from the top of the heap or from mmap, and
# glibc returns them to the system when they are freed, so a pipeline that
# allocated its stacks on every call would fault their pages in again on
# every call.  The regions of the module docstring, by their uses in order:
#
#   "alpha"    the entry-major input path; then a Taylor / squaring buffer
#   "omega"    the Schur phases of the default path; the Magnus exponents;
#              then the pair-product levels of the tree or the scan
#   "bracket"  T1 of the default path; the commutator term of the exponents;
#              then the other Taylor / squaring buffer
#   "swap"     the second product of the commutator; the 1-norms of the
#              exponents; then the scan's output
#   "spare"    the spare of every ``_entry_products`` call

_ARENA_CAP_BYTES = 8 << 20


class _Arena(threading.local):
    def __init__(self):
        self.regions = {}  # name -> flat complex buffer


_arena = _Arena()


def _scratch(region, shape, dtype=complex):
    """Uninitialised array of ``shape`` on the named region of this thread's
    arena, or a new array when the region cannot grow to it within the cap.
    Two requests for the same region share memory."""
    count = math.prod(shape)
    slots = -(-count * np.dtype(dtype).itemsize // 16)  # complex entries
    regions = _arena.regions
    buf = regions.get(region)
    if buf is None or buf.size < slots:
        others = sum(b.nbytes for name, b in regions.items() if name != region)
        if others + 16 * slots > _ARENA_CAP_BYTES:
            return np.empty(shape, dtype=dtype)
        regions.pop(region, None)
        buf = regions[region] = np.empty(slots, dtype=complex)
    return buf[:slots].view(dtype)[:count].reshape(shape)


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
    """Exponential of every matrix in a (K, m, m) stack (``_expm_entries``),
    as a new array; the entry-major copy of X sits on the "omega" region."""
    X = np.asarray(X, dtype=complex)
    lead = X.ndim - 2
    x = _scratch("omega", X.shape[lead:] + X.shape[:lead])
    np.copyto(x, X.transpose((lead, lead + 1) + tuple(range(lead))))
    return _node_major(_expm_entries(x))


def _expm_entries(x):
    """Exponential of every matrix in an entry-major (m, m, *nodes) stack.

    Horner evaluation of one Taylor polynomial followed by repeated
    squaring, with the degree and the number of squarings chosen once from
    the largest 1-norm in the stack (``_taylor_plan``).  The 2**-s scaling
    is folded into the Horner divisors, and every product is an
    ``_entry_products`` call between two ping-pong buffers; the result is
    entry-major too.  A non-finite entry makes the whole result NaN.

    The result is a view of the "alpha" or the "bracket" region; the
    1-norms are taken on "swap" and the products' spare is "spare", so
    ``x`` must lie on none of these four.
    """
    m = x.shape[0]
    sums = _scratch("swap", (m + 1,) + x.shape[1:], float)
    magnitudes, column_sums = sums[:m], sums[m]
    np.abs(x, out=magnitudes)
    np.sum(magnitudes, axis=0, out=column_sums)
    norm = float(np.max(column_sums, initial=0.0))
    out, spare = _scratch("alpha", x.shape), _scratch("bracket", x.shape)
    if not np.isfinite(norm):
        out.fill(np.nan)
        return out
    degree, squarings = _taylor_plan(norm)
    scale = 2.0 ** -squarings
    work = _scratch("spare", x.shape)
    np.multiply(x, scale / degree, out=out)
    out.reshape(m * m, -1)[::m + 1] += 1.0
    for k in range(degree - 1, 0, -1):
        _entry_products(x, out, spare, work)
        spare *= scale / k
        spare.reshape(m * m, -1)[::m + 1] += 1.0
        out, spare = spare, out
    for _ in range(squarings):
        _entry_products(out, out, spare, work)
        out, spare = spare, out
    return out


def _pair_levels(e):
    """Contiguous (m, m, n) buffers, one per level of the pair products of
    an entry-major (m, m, K) stack (level sizes K - K // 2 down to 1),
    carved from the "omega" region."""
    m, K = e.shape[0], e.shape[-1]
    sizes = []
    while K > 1:
        K -= K // 2
        sizes.append(K)
    pool = _scratch("omega", (m * m * sum(sizes),))
    bounds = np.cumsum([0] + sizes) * (m * m)
    return [pool[lo:hi].reshape(m, m, -1) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _suffix_products(e, out):
    """Write out[k] = e[K-1] ... e[k+1] e[k] for an entry-major (m, m, K)
    stack e into the (K, m, m) stack ``out``.

    Odd-even scan (Blelloch 1990, ``_suffix_scan``) on the "swap" region,
    written back to ``out`` once; the pair levels sit on "omega" and the
    spare on "spare", so e must lie on neither.  About 2K products in
    2 ceil(log2 K) calls of ``_entry_products``.  out[0] is
    ``_tree_product(e)`` bit for bit.
    """
    scan = _scratch("swap", e.shape)
    spare = _scratch("spare", e.shape[:2] + (e.shape[-1] // 2,))
    _suffix_scan(e, scan, spare, _pair_levels(e))
    _node_major(scan, out)


def _pair_products(e, pairs, spare):
    """Pair products pairs[j] = e[2j+1] e[2j] of an entry-major (m, m, K)
    stack into ``pairs`` (K - K // 2 nodes), an odd last factor carried
    over; ``spare`` holds K // 2 nodes."""
    K = e.shape[-1]
    half = K // 2
    _entry_products(e[..., 1::2], e[..., 0:2 * half:2], pairs[..., :half],
                    spare[..., :half])
    if K % 2:
        pairs[..., half] = e[..., K - 1]
    return pairs


def _suffix_scan(e, out, spare, levels):
    """The scan of ``_suffix_products`` on entry-major (m, m, K) stacks.

    The pair products (``_pair_products``, into ``levels[0]``) are scanned
    recursively into the even slots, and each odd slot is one more
    product, out[2j+1] = out[2j+2] e[2j+1].  ``spare`` holds at least
    K // 2 nodes of scratch, and ``levels`` the buffers of ``_pair_levels``.
    """
    K = e.shape[-1]
    if K == 1:
        out[..., 0] = e[..., 0]
        return
    pairs = _pair_products(e, levels[0], spare)
    _suffix_scan(pairs, out[..., 0::2], spare, levels[1:])
    odd = (K - 1) // 2  # odd slots below the last even one
    _entry_products(out[..., 2::2], e[..., 1:2 * odd:2], out[..., 1:2 * odd:2],
                    spare[..., :odd])
    if K % 2 == 0:
        out[..., K - 1] = e[..., K - 1]


def _tree_product(e):
    """The (m, m) product e[K-1] ... e[0] of an entry-major (m, m, K) stack
    by the up-sweep of ``_suffix_scan`` alone: K - 1 products in
    ceil(log2 K) calls, associated as, and equal to, the scan's out[0].
    The levels sit on "omega" and the spare on "spare"; the product is a
    new array."""
    spare = _scratch("spare", e.shape[:2] + (e.shape[-1] // 2,))
    for pairs in _pair_levels(e):
        e = _pair_products(e, pairs, spare)
    return e[..., 0].copy()


def _magnus_factors(alpha):
    """Entry-major (m, m, N) stack of the factors E_k = exp(-Omega_k) of
    ``solve_gauge_ode`` for the entry-major (m, m, N+1) path ``alpha``.

    Omega is formed on the "omega" region, its commutator term on
    "bracket" (with "swap" and "spare" for the products), and alpha is
    consumed: the exponential reuses its region.
    """
    m, N = alpha.shape[0], alpha.shape[-1] - 1
    omega = _midpoints(alpha, _scratch("omega", (m, m, N)))  # N >= 3
    h = 1.0 / N
    left, right = alpha[..., :-1], alpha[..., 1:]
    omega *= 4.0
    omega += left
    omega += right
    omega *= -h / 6.0
    bracket, spare = _scratch("bracket", (m, m, N)), _scratch("spare", (m, m, N))
    _entry_products(left, right, bracket, spare)
    bracket -= _entry_products(right, left, _scratch("swap", (m, m, N)), spare)
    bracket *= h * h / 12.0
    omega -= bracket
    return _expm_entries(omega)


def solve_gauge_ode(A):
    """Solve dg/dt = g A(t) backward from g(1) = id by 4th-order Magnus.

    Over [t_k, t_k+1] the propagator is g_k = g_k+1 exp(-Omega_k) with the
    Simpson-form exponent

        Omega_k = h/6 (A_k + 4 A_k+1/2 + A_k+1) + h^2/12 [A_k, A_k+1],

    whose commutator sign is the one for right multiplication integrated
    backward (the opposite sign drops the method to order 2).  Midpoint
    samples come from 4th-order interpolation.  All exponentials are one
    stacked call (``_magnus_factors``), and g_k = E_N-1 ... E_k are suffix
    products formed by an odd-even scan (``_suffix_products``: about 2N
    products in 2 ceil(log2 N) batched calls).  Each factor is the
    exponential of an element of the (complexified) algebra, so the path
    stays in the group by construction; on an abelian algebra the step is
    exact.  The midpoint rule needs N >= 3: MalformedInput otherwise.
    """
    if A.kind not in ("algebra", "complex-algebra"):
        raise MalformedInput("gauge ODE input must be algebra-valued")
    N = A.grid_size
    m = A.context.matrix_size
    alpha = _scratch("alpha", (m, m, N + 1))
    np.copyto(alpha, A.values.transpose(1, 2, 0))
    g = np.empty((N + 1, m, m), dtype=complex)
    _suffix_products(_magnus_factors(alpha), g[:N])
    g[N] = np.eye(m)
    kind = "complex-group" if A.kind == "complex-algebra" else "group"
    return GaugePath(g, kind, A.context)


def _tangent_matrix(ctx, v):
    """v as one complex matrix, checked by ``ctx.coefficients``."""
    v = np.asarray(v, dtype=complex)
    if ctx.coefficients(v).ndim != 1:  # ContextMismatch, ClosureViolation
        raise MalformedInput("a tangent vector is one matrix, not a stack")
    return v


def _transported_tangent(a, v, grid_size, phases, T1):
    """L = log a of the default path h(t) = exp((1 - t) L), with the Schur
    phases and T1(t) = h v h^-1 written into ``phases`` and ``T1``, both
    node-major (N+1, m^2) (see ``embed_tangent``)."""
    L, Z, lam = _normal_log(a)  # LogBranchFailure propagates
    m = len(lam)
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    np.exp(np.outer(1.0 - ts, lam[:, None] - lam[None, :], out=phases), out=phases)
    K = np.einsum("ij,ri,cj->ijrc", Z.conj().T @ v @ Z, Z, Z.conj())
    np.matmul(phases, K.reshape(m * m, m * m), out=T1)
    return L


def embed_tangent(a, v, grid_size, h_path=None):
    """Path pair (T0, T1) representing the tangent point (a, v).

    With the default interpolating path h(t) = exp((1 - t) log a) the
    connection component is the constant log a and T1(t) = h v h^-1; any
    supplied ``h_path`` must be a path of kind "group" in G from a real a
    at t = 0 to the identity (to 1e-8) or, on a context with a split, into
    H (the m-part of log h(1) below 1e-8) at t = 1; MalformedInput
    otherwise.  The pair satisfies the reduced flow equation and T1(1) = v
    for the default path; ``_tangent_matrix`` checks v.

    The default path reads L = log a = Z diag(lam) Z* (Z unitary) off the
    one complex Schur form of a that the logarithm takes
    (``liealg._normal_log``), so that T1(t) = Z (exp((1 - t)(lam_i -
    lam_j)) * Z* v Z) Z*, one (N+1, m^2) by (m^2, m^2) product with
    K[(i,j),(r,c)] = (Z* v Z)_ij Z_ri conj(Z_cj).  Raises MalformedInput
    when a is not normal, which no compact group produces.
    """
    ctx = a.context
    v = _tangent_matrix(ctx, v)
    grid_size = _grid_size(grid_size)
    if h_path is None:
        m, nodes = ctx.matrix_size, grid_size + 1
        T1 = np.empty((nodes, m, m), dtype=complex)
        L = _transported_tangent(a, v, grid_size, np.empty((nodes, m * m), dtype=complex),
                                 T1.reshape(nodes, m * m))
        return constant_path(ctx, L, grid_size), GaugePath(T1, "algebra", ctx)
    if h_path.kind != "group":
        raise MalformedInput(f"h_path must be a group path, not {h_path.kind!r}")
    if a.complexified:
        raise MalformedInput("the base point must be a real group element")
    if h_path.grid_size != grid_size:
        raise GridMismatch("h_path grid does not match the requested grid")
    hv = h_path.values
    if np.linalg.norm(hv[0] - a.matrix) > 1e-8:
        raise MalformedInput("h_path must start at the base point")
    if (np.linalg.norm(hv[-1] - np.eye(ctx.matrix_size)) > 1e-8
            and (ctx.h_mask is None or ctx.norm(ctx.project_m(
                group_log(GroupElement(hv[-1], ctx)))) > 1e-8)):
        raise MalformedInput("h_path must end at the identity or in the subgroup")
    dh = path_derivative(hv, 1.0 / grid_size)
    hinv = np.linalg.inv(hv)
    T0 = GaugePath(-_matmul_paths(dh, hinv), "algebra", ctx)
    T1 = GaugePath(_matmul_paths(_matmul_paths(hv, v), hinv), "algebra", ctx)
    return T0, T1


def adapted_roundtrip(a, v, grid_size=2000):
    """Recover the complexified image of (a, v) through the gauge ODE.

    Embeds (a, v) along the default path of ``embed_tangent``, gauges the
    complex combination alpha = T0 + i T1 to zero, and returns g(0)^-1, which
    converges at 4th order to a exp(i v) (v checked as there; grid_size >= 3).
    alpha is written once, entry-major, on the "alpha" region from L and the
    product T1 of ``embed_tangent`` (the phases on "omega", T1 node-major on
    "bracket", as BLAS writes it, so that T1 is ``embed_tangent``'s bit for
    bit).  Only g(0) is formed, by ``_tree_product`` over the Magnus factors
    of ``solve_gauge_ode``, equal bit for bit to the scan's g(0).  Another
    path from a runs the same route by hand: ``embed_tangent`` with that path,
    ``solve_gauge_ode`` on T0 + i T1, and the inverse of g(0).
    """
    ctx = a.context
    v = _tangent_matrix(ctx, v)
    grid_size = _grid_size(grid_size)
    m, nodes = ctx.matrix_size, grid_size + 1
    alpha = _scratch("alpha", (m, m, nodes))
    T1 = _scratch("bracket", (nodes, m * m))
    L = _transported_tangent(a, v, grid_size, _scratch("omega", (nodes, m * m)), T1)
    np.multiply(T1.reshape(nodes, m, m).transpose(1, 2, 0), 1j, out=alpha)
    alpha += L[:, :, None]
    g0 = _tree_product(_magnus_factors(alpha))
    return GroupElement(np.linalg.inv(g0), ctx, complexified=True)


# -- flat hyperkahler structure ------------------------------------------

def _trapezoid_weights(N):
    w = np.full(N + 1, 1.0 / N)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _trapezoid(node_values, N):
    return float(np.dot(_trapezoid_weights(N), node_values))


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


# (weights, order) of omega_I: sum_k w_k <X_k, Y_order[k]>
_OMEGA_I_PAIRING = ((1.0, -1.0, 1.0, -1.0), (1, 0, 3, 2))


def omega_I(X, Y):
    """Symplectic pairing of the first complex structure:
    integral of <X0,Y1> - <X1,Y0> + <X2,Y3> - <X3,Y2> for configurations
    X, Y used as tangent vectors."""
    return _slot_pairing(X, Y, *_OMEGA_I_PAIRING)


def kahler_potential(config):
    """Quadratic potential (1/2)|T1|^2 + (1/4)|T2|^2 + (1/4)|T3|^2 in L^2."""
    return _slot_pairing(config, config, (0.0, 0.5, 0.25, 0.25), (0, 1, 2, 3))


def potential_two_form(config, X, Y):
    """d(I df)(X, Y) by centered differences of the potential, step 1e-3.

    The configuration space is flat, so for constant directions the
    exterior derivative reduces to antisymmetrized directional derivatives
    of lambda(Z) = df(I^-1 Z); each df is itself a centered difference.
    This equals omega_I exactly at the discrete level (the potential is
    quadratic), and matches the continuum pairing at the quadrature order.
    """
    _same_grid(config, X, Y)
    step = 1e-3

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
        return context.coefficients(values)
    except ClosureViolation as err:
        raise MalformedInput(f"{what} must lie in the real span: {err}") from None


def integrate_nahm(context, initial, T0):
    """RK4 evolution of the three cyclic equations with prescribed T0.

    ``initial`` supplies (T1, T2, T3) at t = 0; T0 is connection data, not
    evolved.  The flow runs on real coefficients: T0, its midpoints and the
    initial data are expanded once, and with z = (a, Y1, Y2, Y3) in R^{4d}
    the right-hand side is bilinear in z, so each stage is one outer
    product z ⊗ z and one product with a constant (16 d^2, 3 d) table built
    from the structure constants (``_nahm_table``) and scaled by the
    stage's step.  The (4, N+1, m, m) stack is reconstructed once at the
    end.  Raises MalformedInput when N < 3 or when T0 or the initial data
    leave the real span, and BlowupDetected naming the first step after
    which some evolved norm exceeds 1e6 or is not finite (the flow genuinely
    blows up in finite time for some data); the norms are read off the
    finished stack.
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
        mids = _midpoints(a.T).T
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
        values = np.empty((4, N + 1, m, m), dtype=complex)
        values[0] = T0.values
        values[1:] = context.reconstruct(coeffs.reshape(N + 1, 3, d).transpose(1, 0, 2))
        norms_sq = (np.abs(values[1:, 1:]) ** 2).sum(axis=(2, 3)).max(axis=0)
    bound = 1e6
    exceeded = np.flatnonzero(~(norms_sq <= bound * bound))
    if exceeded.size:
        raise BlowupDetected(f"flow norm exceeded {bound:.1e} or is not "
                             f"finite at step {exceeded[0] + 1}")
    return NahmConfiguration._from_stack(values, context)


# -- smooth random data helpers ------------------------------------------

def smooth_gauge(context, rng, grid_size, amplitude=0.5, endpoints="free"):
    """Random smooth group path; ``endpoints`` picks the boundary behavior.

    "free": no constraint; "loop": identity at both ends; "subgroup":
    identity at t = 0 and a subgroup element at t = 1.
    """
    if endpoints not in ("free", "loop", "subgroup"):
        raise MalformedInput(f"unknown endpoints {endpoints!r}")
    d = context.dim
    c1 = rng.standard_normal(d) * amplitude
    c2 = rng.standard_normal(d) * amplitude
    ts = np.linspace(0.0, 1.0, _grid_size(grid_size) + 1)
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
    return GaugePath(_expm_stack(context.reconstruct(coeffs)), "group", context)


def _tangent_draws(context, rng):
    """The draws of ``smooth_tangent`` in its rng order: per slot the real
    coefficients a, b of its two algebra elements and its frequency f, so
    that the slot is cos(pi f t) A + sin(pi t) B."""
    draws = []
    for _ in range(4):
        a = context.random_coefficients(rng)
        b = context.random_coefficients(rng)
        draws.append((a, b, rng.integers(1, 4)))
    return draws


def smooth_tangent(context, rng, grid_size):
    """Random analytic configuration (trig profiles per slot, coefficients
    in the unit ball), used as a point or as a tangent direction."""
    ts = np.linspace(0.0, 1.0, _grid_size(grid_size) + 1)
    prof2 = np.sin(np.pi * ts)[:, None, None]
    m = context.matrix_size
    values = np.empty((4, len(ts), m, m), dtype=complex)
    for slot, (a, b, freq) in zip(values, _tangent_draws(context, rng)):
        slot[...] = (np.cos(np.pi * freq * ts)[:, None, None] * context.reconstruct(a)
                     + prof2 * context.reconstruct(b))
    return NahmConfiguration._from_stack(values, context)


def smooth_tangent_omega_I(context, rng_x, rng_y, grid_size):
    """omega_I(X, Y) for X = smooth_tangent(context, rng_x, grid_size) and
    Y the same from rng_y, drawn after X, without either configuration.

    omega_I is bilinear, and slot k of X is cos(pi f_k t) A_k + sin(pi t) B_k,
    so its trapezoid value is a sum of pairings <A_k, C_j> of the drawn
    coefficients under ``context.inner_product``, each times the trapezoid
    of a product of two 1-D profiles.  That takes O(N) floats where the
    tangents take two complex (4, N+1, m, m) stacks.
    """
    grid_size = _grid_size(grid_size)
    X = _tangent_draws(context, rng_x)
    Y = _tangent_draws(context, rng_y)
    # profile 0 is sin(pi t); profile p > 0 is cos(pi f t) for the p-th
    # distinct drawn frequency f
    freqs = sorted({int(f) for _, _, f in X + Y})
    ts = np.linspace(0.0, 1.0, grid_size + 1)
    profiles = [np.sin(np.pi * ts)] + [np.cos(np.pi * f * ts) for f in freqs]
    del ts
    w = _trapezoid_weights(grid_size)
    gram = np.empty((len(profiles), len(profiles)))
    for p, row in enumerate(profiles):
        weighted = w * row
        gram[p] = [np.dot(weighted, col) for col in profiles]
    G = context.inner_product

    def terms(draw):
        a, b, f = draw
        return ((freqs.index(int(f)) + 1, a), (0, b))

    weights, order = _OMEGA_I_PAIRING
    total = 0.0
    for weight, x, j in zip(weights, X, order):
        total += weight * sum(gram[p, q] * (u @ G @ v)
                              for p, u in terms(x) for q, v in terms(Y[j]))
    return float(total)
