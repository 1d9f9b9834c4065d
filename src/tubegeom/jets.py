"""Truncated multivariate polynomial (jet) arithmetic on dense graded arrays.

A jet is a polynomial in ``num_vars`` real variables kept only up to total
degree ``max_degree``.  All arithmetic truncates consistently, so a product
of two jets is the exact degree-``max_degree`` part of the product of the
underlying polynomials.  Coefficients may be real or complex; a jet stays
float64 until a complex operand (typically a Wirtinger derivative) enters.

Storage is one coefficient array per jet, whose last axis is indexed by the
graded monomial table of ``(num_vars, max_degree)``; leading axes make a
vector or matrix of jets one jet.  Monomials are listed degree by degree,
lexicographically within a degree, so truncating to degree ``d`` is a prefix
slice.  The tables (exponent matrix, product index maps per pair of degrees,
one stacked gather table of every first partial) are built once with
vectorised NumPy and cached.  The degree-d rows are the degree d-1 rows times
each variable, deduplicated by their integer codes in base d + 1, which sort
like the rows; evaluation runs are counted with binomials, and every cached
table owns its entries, so no cached view keeps a larger temporary alive
(``evaluate``'s cached plans hold views of the cached position tables).
Graded blocks form the same prefix in every layout, so the partial table of
one layout serves every lower one, and a second partial is a gather of the
first partials through it.  At 16 variables and degree 8 (735 471
monomials) the layout builds in 0.5 s and keeps 191 MiB, and its partial
table takes 0.5 s and keeps 60 MiB (tracemalloc, 2-core x86-64 host).
Products scatter the outer product of
two homogeneous parts into their target degree with ``np.bincount`` and
skip degrees whose coefficients are all zero.  A jet-matrix system A X = B
is solved degree by degree by back-substitution on the same block products.
This is truncated Taylor arithmetic (Griewank and Walther, *Evaluating
Derivatives*, ch. 13).

``evaluate`` splits the variables into two halves, so that every monomial
is x^alpha y^beta, builds the monomial values of each half by contiguous
runs (one slice-times-variable product each, with no gathered indices), and
sums one matrix product per left degree, skipping the bi-degrees whose
coefficients are all zero; what it reads for one set of live bi-degrees is
cached.

Only ``wirtinger_z`` and ``wirtinger_zbar`` assume the tube layout that
``majet`` decides, ``(x_1..x_n, y_1..y_n)``: variable ``i`` is ``x_{i+1}``
and variable ``n+i`` is ``y_{i+1}``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import MalformedInput, SingularSystem

_EVAL_CHUNK = 1 << 18  # monomial values (2 MB) held at once by ``evaluate``
COND_LIMIT = 1e12  # largest condition number of a solve's constant matrix


# -- cached monomial tables ---------------------------------------------

def _readonly(arr):
    arr.flags.writeable = False
    return arr


def _encode(exponents, base):
    """Base-``base`` integer codes of exponent rows; they sort like the rows."""
    weights = base ** np.arange(exponents.shape[-1] - 1, -1, -1, dtype=np.int64)
    return exponents @ weights


@functools.lru_cache(maxsize=None)
def _monomials(num_vars, degree):
    """Exponent rows of total degree ``degree`` in lexicographic order."""
    if degree == 0 or num_vars == 0:  # no variables: the constant alone
        return _readonly(np.zeros((int(degree == 0), num_vars), dtype=np.int64))
    # raise each lower row by each variable and keep the first of every code:
    # the code of row * x_v is the row's code plus the code of x_v
    lower = _monomials(num_vars, degree - 1)
    eye = np.eye(num_vars, dtype=np.int64)
    codes = _encode(lower, degree + 1)[:, None] + _encode(eye, degree + 1)
    _, first = np.unique(codes.ravel(), return_index=True)
    row, var = np.divmod(first, num_vars)
    return _readonly(lower[row] + eye[var])


@functools.lru_cache(maxsize=None)
def _product_block(num_vars, d1, d2):
    """Position within degree ``d1 + d2`` of each product monomial m1 * m2,
    flattened over (m1 of degree d1, m2 of degree d2)."""
    base = d1 + d2 + 1
    c1 = _encode(_monomials(num_vars, d1), base)
    c2 = _encode(_monomials(num_vars, d2), base)
    target = _encode(_monomials(num_vars, d1 + d2), base)
    return _readonly(np.searchsorted(target, (c1[:, None] + c2[None, :]).ravel()))


class _Layout:
    """Graded monomial table of ``(num_vars, max_degree)``."""

    def __init__(self, num_vars, max_degree):
        if (max_degree + 1) ** num_vars >= 2 ** 62:
            raise MalformedInput("jet too large for the monomial encoding")
        blocks = [_monomials(num_vars, d) for d in range(max_degree + 1)]
        self.exponents = _readonly(np.concatenate(blocks))
        self.offsets = np.cumsum([0] + [len(b) for b in blocks])
        self.size = int(self.offsets[-1])
        self._blocks = [slice(int(a), int(b))
                        for a, b in zip(self.offsets[:-1], self.offsets[1:])]
        self.base = max_degree + 1
        codes = _encode(self.exponents, self.base)
        self._order = np.argsort(codes)
        self._sorted_codes = codes[self._order]
        self.runs = self._parent_runs()

    def _parent_runs(self):
        """Runs (dst_start, dst_stop, src_start, src_stop, var) of ``evaluate``,
        one tuple of runs per degree (none at degree 0).

        Within degree d the monomials whose first nonzero variable is ``var``
        are contiguous, and dividing them by x_var maps them in order onto the
        degree d-1 monomials free of the variables before ``var``: a prefix
        of block d-1 of the same length.  Each run is then one slice product.
        """
        num_vars = self.exponents.shape[1]
        runs = [()]
        for d in range(1, len(self._blocks)):
            # the run of variable n - k follows the comb(d + k - 2, d)
            # monomials of degree d in the last k - 1 variables and ends
            # after the comb(d + k - 1, d) of degree d in the last k
            ends = [self.block(d).start + math.comb(d + k - 1, d)
                    for k in range(num_vars + 1)]
            src = int(self.offsets[d - 1])
            runs.append(tuple((a, b, src, src + b - a, num_vars - k)
                              for k, (a, b) in enumerate(zip(ends, ends[1:]), 1)))
        return tuple(runs)

    def block(self, d):
        """Slice of the monomials of total degree ``d``."""
        return self._blocks[d]

    def index(self, exponents):
        """Positions of exponent rows, each of total degree <= max_degree."""
        codes = _encode(np.asarray(exponents, dtype=np.int64), self.base)
        return self._order[np.searchsorted(self._sorted_codes, codes)]

    def live_degrees(self, coeffs):
        """Degrees at which any of the stacked coefficient arrays is nonzero;
        the arrays may stop at a lower degree bound, a prefix of the layout."""
        size = coeffs.shape[-1]
        nonzero = coeffs.reshape(-1, size).any(axis=0)
        starts = self.offsets[:np.searchsorted(self.offsets, size)]
        return np.flatnonzero(np.logical_or.reduceat(nonzero, starts)).tolist()


@functools.lru_cache(maxsize=None)
def _layout(num_vars, max_degree):
    return _Layout(num_vars, max_degree)


class _Split:
    """The monomials of ``(num_vars, max_degree)`` as products x^alpha y^beta
    of a left half x (the first num_vars // 2 variables; none for one
    variable) and a right half y (the rest).

    ``left`` and ``right`` are the graded layouts of the halves through
    max_degree; ``bidegree[m]`` is the flat index of monomial m's (|alpha|,
    |beta|) in a (max_degree + 1)^2 table.  ``positions[a]`` has one row per
    alpha of degree a and one column per beta of degree <= max_degree - a
    (the right layout's prefix) and holds the position of x^alpha y^beta.
    """

    def __init__(self, num_vars, max_degree):
        layout = _layout(num_vars, max_degree)
        self.cut = num_vars // 2
        self.left = _layout(self.cut, max_degree)
        self.right = _layout(num_vars - self.cut, max_degree)
        alpha, beta = layout.exponents[:, :self.cut], layout.exponents[:, self.cut:]
        left_degree = alpha.sum(axis=1)
        self.bidegree = _readonly(left_degree * (max_degree + 1) + beta.sum(axis=1))
        rows = self.left.index(alpha) - self.left.offsets[left_degree]
        cols = self.right.index(beta)
        self.positions = []
        for a in range(max_degree + 1):
            block = left_degree == a
            pos = np.empty((self.left.offsets[a + 1] - self.left.offsets[a],
                            self.right.offsets[max_degree - a + 1]), dtype=np.int64)
            pos[rows[block], cols[block]] = np.flatnonzero(block)
            self.positions.append(_readonly(pos))

    def live_blocks(self, coeffs):
        """Boolean (a, b) table: is any stacked coefficient of left degree a
        and right degree b nonzero."""
        live = np.zeros((len(self.positions),) * 2, dtype=bool)
        live.flat[self.bidegree[coeffs.any(axis=0)]] = True
        return live


@functools.lru_cache(maxsize=None)
def _split(num_vars, max_degree):
    return _Split(num_vars, max_degree)


@functools.lru_cache(maxsize=256)
def _evaluation_plan(num_vars, max_degree, live):
    """What ``evaluate`` reads for the bytes ``live`` of a ``live_blocks``
    table: per live left degree a, the left block, the right rows b0..b1
    from the first to the last live right degree, and the positions of the
    coefficients of x^alpha y^beta in them (a view of ``positions[a]``); the
    runs of both halves through the highest degrees read; the row counts of
    both halves; and the largest left block read."""
    split = _split(num_vars, max_degree)
    left, right = split.left, split.right
    table = np.frombuffer(live, dtype=bool).reshape(len(split.positions), -1)
    plan = []
    x_top = y_top = 0  # highest left and right degrees the products read
    for a, row in enumerate(table.tolist()):
        if True in row:
            b0, b1 = row.index(True), len(row) - 1 - row[::-1].index(True)
            cols = slice(int(right.offsets[b0]), int(right.offsets[b1 + 1]))
            plan.append((left.block(a), cols, split.positions[a][:, cols]))
            x_top, y_top = a, max(y_top, b1)
    return (tuple(plan),
            tuple(r for runs in left.runs[1:x_top + 1] for r in runs),
            tuple(r for runs in right.runs[1:y_top + 1] for r in runs),
            left.block(x_top).stop, right.block(y_top).stop,
            max((len(index) for *_, index in plan), default=0))


def _fill_monomials(rows, runs, xt):
    """Monomial values of one half in ``rows`` (row 0 already holds ones):
    each run (dst_start, dst_stop, src_start, src_stop, var) is one slice
    of lower-degree values times variable row ``xt[var]``."""
    for a, b, pa, pb, var in runs:
        np.multiply(rows[pa:pb], xt[var], out=rows[a:b])


@functools.lru_cache(maxsize=None)
def _partial_table(num_vars, max_degree):
    """(src, weight), each (num_vars, below): d/dx_v puts coefficient
    src[v, t] times weight[v, t] at each position t below the top degree;
    the top degree block of a derivative is zero.  Graded blocks form the
    same prefix in every layout, so the first ``offsets[k]`` columns are the
    table of the layout of degree k: a second derivative gathers the first
    derivatives through the same table."""
    layout = _layout(num_vars, max_degree)
    below = int(layout.offsets[-2])
    src = np.empty((num_vars, below), dtype=np.int64)
    weight = np.empty((num_vars, below))
    raised = np.empty((below, num_vars), dtype=np.int64)
    for var in range(num_vars):  # one variable at a time bounds the temporaries
        raised[...] = layout.exponents[:below]
        raised[:, var] += 1
        src[var] = layout.index(raised)
        weight[var] = raised[:, var]
    return _readonly(src), _readonly(weight)


@functools.lru_cache(maxsize=None)
def _derivative_table(num_vars, order):
    """(position, weight) arrays of shape (num_vars,) * order.

    For the index tuple (i_1, ..., i_order) with multiplicities a, the
    derivative d^order / dx_i_1 ... dx_i_order at the origin is the
    coefficient of x^a, at ``position``, times ``weight`` = prod a_v!.
    Positions hold in every layout with max_degree >= order, since the
    graded blocks of degree <= order form the same prefix in all of them.
    """
    shape = (num_vars,) * order
    count = num_vars ** order
    powers = np.zeros((count, num_vars), dtype=np.int64)
    rows = np.arange(count)
    for axis in np.indices(shape).reshape(order, count):  # i_1, ..., i_order
        powers[rows, axis] += 1
    factorials = np.cumprod([1] + list(range(1, order + 1)))
    weight = factorials[powers].prod(axis=1).astype(float)
    position = _layout(num_vars, order).index(powers)
    # copies, so that the cached tables own their entries
    return (_readonly(position.reshape(shape).copy()),
            _readonly(weight.reshape(shape).copy()))


def _scatter(index, values, length):
    """Row-wise ``bincount``: out[r, index[t]] += values[r, t]."""
    rows = values.shape[0]
    flat = index if rows == 1 else (index + length * np.arange(rows)[:, None]).ravel()
    total = rows * length
    if np.iscomplexobj(values):
        out = (np.bincount(flat, values.real.ravel(), total)
               + 1j * np.bincount(flat, values.imag.ravel(), total))
    else:
        out = np.bincount(flat, values.ravel(), total)
    return out.reshape(rows, length)


def _add_block_product(out, A1, B2, index):
    """out[i, j] += sum_k A1[i, k] * B2[k, j] for the degree-d1 parts A1
    (p, q, N1) and degree-d2 parts B2 (q, r, N2), each outer product
    scattered by ``index`` (``_product_block`` of (d1, d2)) into ``out``, the
    degree d1 + d2 block.  Rows are formed one at a time, which bounds the
    temporaries by one row of outer products."""
    Bt = B2.transpose(1, 0, 2)  # (r, q, N2)
    for i, row in enumerate(A1):  # row: (q, N1)
        outer = (row.T @ Bt).reshape(len(Bt), -1)  # (r, N1 * N2)
        out[i] += _scatter(index, outer, out.shape[2])


def _graded_matmul(A, B, num_vars, bound):
    """C[i, j] = sum_k A[i, k] * B[k, j] for stacked coefficient arrays.

    ``A`` has shape (p, q, >= size) and ``B`` shape (q, r, >= size), where
    size is the monomial count of ``(num_vars, bound)``.  Each pair of live
    degrees (d1, d2) adds one block product into degree d1 + d2.
    """
    layout = _layout(num_vars, bound)
    A = A[..., :layout.size]
    B = B[..., :layout.size]
    C = np.zeros((A.shape[0], B.shape[1], layout.size), dtype=np.result_type(A, B))
    live_b = layout.live_degrees(B)
    for d1 in layout.live_degrees(A):
        for d2 in live_b:
            if d1 + d2 > bound:
                break
            _add_block_product(C[:, :, layout.block(d1 + d2)],
                               A[:, :, layout.block(d1)], B[:, :, layout.block(d2)],
                               _product_block(num_vars, d1, d2))
    return C


def _graded_solve(A, B, num_vars, bound):
    """X with A X = B through degree ``bound``, for stacked coefficient arrays.

    ``A`` has shape (s, s, >= size) and ``B`` shape (s, r, >= size).  The
    degree-d part of A X = B is A0 X_d + sum_{k >= 1} A_k X_{d-k} = B_d, so
    back-substitution gives X_d = A0^-1 (B_d - sum_k A_k X_{d-k}) degree by
    degree, skipping the degrees at which A or X is zero.  Raises
    SingularSystem unless A0 is finite with cond(A0) <= COND_LIMIT.
    """
    layout = _layout(num_vars, bound)
    A0 = A[:, :, 0]
    if not np.all(np.isfinite(A0)) or np.linalg.cond(A0) > COND_LIMIT:
        raise SingularSystem("constant part of the jet matrix is singular")
    A0inv = np.linalg.inv(A0)
    X = np.zeros((len(A), B.shape[1], layout.size), dtype=np.result_type(A, B))
    live_a = [k for k in layout.live_degrees(A[..., :layout.size]) if k > 0]
    for d in range(bound + 1):
        target = layout.block(d)
        lower = np.zeros(X[:, :, target].shape, dtype=X.dtype)
        for k in live_a:
            if k <= d and X[:, :, layout.block(d - k)].any():
                _add_block_product(lower, A[:, :, layout.block(k)],
                                   X[:, :, layout.block(d - k)],
                                   _product_block(num_vars, k, d - k))
        rhs = (B[:, :, target] - lower).reshape(len(A), -1)
        X[:, :, target] = (A0inv @ rhs).reshape(lower.shape)
    return X


# -- jets ----------------------------------------------------------------

def _scalar_only(what, *jets):
    if any(jet.shape for jet in jets):
        raise MalformedInput(f"{what} takes scalar jets, not jets with leading axes")


def _exponent_tuple(powers, num_vars):
    """``powers`` as a tuple of ints; MalformedInput unless it has one entry
    per variable, each a non-negative integral value (2.0 passes; 1.5, NaN
    and inf do not, where an int cast would truncate, warn or raise)."""
    powers = tuple(powers)
    if len(powers) != num_vars:
        raise MalformedInput(f"exponent tuple {powers} has {len(powers)} entries, "
                             f"expected {num_vars}")
    if not all(p >= 0 and float(p).is_integer() for p in powers):
        raise MalformedInput("exponents must be non-negative integers")
    return tuple(map(int, powers))


class JetPolynomial:
    """Polynomial truncated at a total degree bound, stored densely.

    Construct from a dict mapping exponent tuples (one exponent per
    variable) to scalar coefficients; terms above the degree bound are
    dropped.  Coefficients have shape ``(*shape, monomials)``, so a jet
    matrix is one jet with entries ``A[i, j] == A[i][j]``.  Arithmetic,
    ``partial`` and ``evaluate`` act entry-wise; the dict constructor,
    ``coeffs``, ``coefficient`` and jet products take scalar jets only.
    Instances are immutable; operations return new jets.
    """

    __slots__ = ("num_vars", "max_degree", "_c")
    __array_ufunc__ = None  # NumPy scalars defer to the jet's operators

    def __init__(self, num_vars, max_degree, coeffs=None):
        if not (num_vars >= 1 and max_degree >= 0  # integral, as exponents are
                and float(num_vars).is_integer() and float(max_degree).is_integer()):
            raise MalformedInput("jets need integers num_vars >= 1 and max_degree >= 0")
        self.num_vars = int(num_vars)
        self.max_degree = int(max_degree)
        layout = _layout(self.num_vars, self.max_degree)
        if not coeffs:
            self._c = np.zeros(layout.size)
            return
        rows = np.array([_exponent_tuple(p, self.num_vars) for p in coeffs],
                        dtype=np.int64).reshape(-1, self.num_vars)
        values = np.asarray(list(coeffs.values()))
        if values.ndim != 1:
            raise MalformedInput("dict coefficients must be scalars")
        keep = rows.sum(axis=1) <= self.max_degree
        self._c = np.zeros(layout.size,
                           dtype=complex if np.iscomplexobj(values) else float)
        self._c[layout.index(rows[keep])] = values[keep]

    @classmethod
    def _from_array(cls, num_vars, max_degree, coeffs):
        jet = cls.__new__(cls)
        jet.num_vars = num_vars
        jet.max_degree = max_degree
        jet._c = coeffs
        return jet

    @property
    def _layout(self):
        return _layout(self.num_vars, self.max_degree)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars, max_degree):
        return cls(num_vars, max_degree)

    @classmethod
    def constant(cls, value, num_vars, max_degree):
        return cls(num_vars, max_degree, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, index, num_vars, max_degree):
        powers = [0] * num_vars
        powers[index] = 1
        return cls(num_vars, max_degree, {tuple(powers): 1.0})

    # -- structure ----------------------------------------------------

    @property
    def shape(self):
        """Leading axes: () for a scalar jet, (n, n) for a jet matrix."""
        return self._c.shape[:-1]

    def __len__(self):
        return len(self._c[..., 0])  # TypeError for a scalar jet

    def __getitem__(self, index):
        """Sub-jet of the leading axes, indexed as NumPy indexes an array."""
        index = (index if isinstance(index, tuple) else (index,)) + (slice(None),)
        return JetPolynomial._from_array(self.num_vars, self.max_degree, self._c[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @property
    def coeffs(self):
        """Dict of the nonzero terms, exponent tuple -> coefficient (a copy)."""
        _scalar_only("coeffs", self)
        nz = np.flatnonzero(self._c)
        rows = self._layout.exponents[nz].tolist()
        return dict(zip(map(tuple, rows), self._c[nz].tolist()))

    def coefficient(self, powers):
        """Coefficient of the monomial with the given exponent tuple."""
        _scalar_only("coefficient", self)
        powers = _exponent_tuple(powers, self.num_vars)
        if sum(powers) > self.max_degree:
            return 0.0
        return self._c[self._layout.index(powers)].item()

    def degree(self):
        """Largest total degree with a stored term in any entry (0 for zero)."""
        live = self._layout.live_degrees(self._c)
        return live[-1] if live else 0

    def truncated(self, new_max_degree):
        if not (new_max_degree >= 0 and float(new_max_degree).is_integer()):
            raise MalformedInput("max_degree must be an integer >= 0")
        size = _layout(self.num_vars, int(new_max_degree)).size
        out = np.zeros(self.shape + (size,), dtype=self._c.dtype)
        kept = min(size, self._c.shape[-1])
        out[..., :kept] = self._c[..., :kept]
        return JetPolynomial._from_array(self.num_vars, int(new_max_degree), out)

    def max_abs_coeff(self, degrees=None):
        """Largest |coefficient| over all entries, optionally restricted to
        a set of total degrees; NaN when any of those coefficients is NaN."""
        values = self._c
        if degrees is not None:
            layout = self._layout
            values = np.concatenate(
                [values[..., layout.block(d)] for d in sorted(degrees)
                 if 0 <= d <= self.max_degree] or [values[..., :0]], axis=-1)
        return float(np.max(np.abs(values))) if values.size else 0.0

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.num_vars != other.num_vars:
            raise MalformedInput("jets have different variable counts")

    def _binary(self, other, op):
        self._check_compatible(other)
        bound = min(self.max_degree, other.max_degree)
        size = _layout(self.num_vars, bound).size
        return JetPolynomial._from_array(self.num_vars, bound,
                                         op(self._c[..., :size], other._c[..., :size]))

    def __add__(self, other):
        if np.isscalar(other):
            out = self._c.astype(np.result_type(self._c, other))
            out[..., 0] += other
            return JetPolynomial._from_array(self.num_vars, self.max_degree, out)
        return self._binary(other, np.add)

    __radd__ = __add__

    def __neg__(self):
        return JetPolynomial._from_array(self.num_vars, self.max_degree, -self._c)

    def __sub__(self, other):
        if np.isscalar(other):
            return self + (-other)
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return JetPolynomial._from_array(self.num_vars, self.max_degree,
                                             self._c * other)
        _scalar_only("a jet product", self, other)
        self._check_compatible(other)
        bound = min(self.max_degree, other.max_degree)
        product = _graded_matmul(self._c[None, None], other._c[None, None],
                                 self.num_vars, bound)
        return JetPolynomial._from_array(self.num_vars, bound, product[0, 0])

    __rmul__ = __mul__

    def derivatives_at_origin(self, order):
        """Tensor of the order-``order`` partial derivatives at the origin,
        shape (*shape) + (num_vars,) * order, read from one degree block."""
        if not 0 <= order <= self.max_degree:
            raise MalformedInput(f"jet of degree {self.max_degree} has no "
                                 f"order-{order} derivatives")
        position, weight = _derivative_table(self.num_vars, order)
        return self._c[..., position] * weight

    def partial(self, var_index):
        """Partial derivative by one variable; an array ``v`` of variables
        stacks them on new leading axes, ``partial(v)[k] == partial(v[k])``.
        Differentiating a degree-d jet is complete through degree d-1, so
        the degree bound is kept as is; its top block is zero.
        """
        variables = np.asarray(var_index)
        flat = variables.ravel().tolist()
        if variables.dtype.kind not in "iu" or not all(0 <= v < self.num_vars
                                                       for v in flat):
            raise MalformedInput(f"variable index {var_index!r} is not an integer "
                                 f"in [0, {self.num_vars})")
        src, weight = _partial_table(self.num_vars, self.max_degree)
        below = src.shape[1]  # positions below the top degree
        out = np.empty((len(flat),) + self._c.shape, dtype=self._c.dtype)
        out[..., below:] = 0
        for k, var in enumerate(flat):
            np.multiply(self._c.take(src[var], axis=-1), weight[var], out=out[k][..., :below])
        return JetPolynomial._from_array(self.num_vars, self.max_degree,
                                         out.reshape(variables.shape + self._c.shape))

    def evaluate(self, points):
        """Evaluate at one point (1-d array) or many points ((P, num_vars));
        values have shape ``(*shape)`` or ``(*shape, P)``.

        With the variables split into halves x and y (``_Split``), the value
        is sum_a X_a * (C_a @ Y): X_a holds the values of the left monomials
        of degree a and Y those of the right monomials, both built by runs
        in chunks of points; C_a gathers the coefficients of x^alpha y^beta
        with |alpha| = a, one row per entry and alpha.  Left degrees with no
        nonzero coefficient are skipped, and C_a spans only the right
        degrees from the first to the last live one.  The real and
        imaginary parts of the coefficients share each product.
        """
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.num_vars:
            raise MalformedInput("point dimension does not match variable count")
        coeffs = self._c.reshape(-1, self._layout.size)
        entries = len(coeffs)
        if np.iscomplexobj(coeffs):
            coeffs = np.concatenate([coeffs.real, coeffs.imag])
        split = _split(self.num_vars, self.max_degree)
        plan, x_runs, y_runs, x_rows, y_rows, alphas = _evaluation_plan(
            self.num_vars, self.max_degree, split.live_blocks(coeffs).tobytes())
        products = [(blk, cols, coeffs[:, index].reshape(-1, index.shape[1]))
                    for blk, cols, index in plan]  # C_a: (rows * alpha, beta)
        held = x_rows + y_rows + len(coeffs) * alphas
        chunk = max(1, min(pts.shape[0], _EVAL_CHUNK // held))
        sums = np.zeros((len(coeffs), pts.shape[0]))
        buffer = np.empty((x_rows + y_rows, chunk))  # monomial rows, reused
        buffer[0] = buffer[x_rows] = 1.0
        for start in range(0, pts.shape[0], chunk):
            xt = np.ascontiguousarray(pts[start:start + chunk].T)
            X = buffer[:x_rows, :xt.shape[1]]
            Y = buffer[x_rows:, :xt.shape[1]]
            _fill_monomials(X, x_runs, xt[:split.cut])
            _fill_monomials(Y, y_runs, xt[split.cut:])
            acc = sums[:, start:start + chunk]
            for blk, cols, c in products:
                term = (c @ Y[cols]).reshape(len(acc), -1, xt.shape[1])
                term *= X[blk]
                acc += term.sum(axis=1)
        vals = sums[:entries]
        if np.iscomplexobj(self._c) and self._c.imag.any():
            vals = vals + 1j * sums[entries:]
        return vals.reshape(self.shape + (() if single else (-1,)))[()]  # 0-d: scalar

    def __repr__(self):
        return (f"JetPolynomial(num_vars={self.num_vars}, "
                f"max_degree={self.max_degree}, shape={self.shape}, "
                f"terms={np.count_nonzero(self._c)})")


# -- Wirtinger derivatives on the (x_1..x_n, y_1..y_n) layout ----------

def wirtinger_z(jet, alpha, n):
    """d/dz_alpha = (d/dx_alpha - i d/dy_alpha) / 2; an array ``alpha`` stacks."""
    alpha = np.asarray(alpha)
    return 0.5 * (jet.partial(alpha) - 1j * jet.partial(n + alpha))


def wirtinger_zbar(jet, alpha, n):
    """d/dzbar_alpha = (d/dx_alpha + i d/dy_alpha) / 2."""
    alpha = np.asarray(alpha)
    return 0.5 * (jet.partial(alpha) + 1j * jet.partial(n + alpha))


def matrix_inverse(A):
    """Inverse of an (s, s) jet, exact through max_degree: the graded solve
    of A X = I.  Requires the constant part A0 invertible."""
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise MalformedInput(f"matrix_inverse needs an (s, s) jet, not {A.shape}")
    identity = np.zeros(A._c.shape)
    identity[:, :, 0] = np.eye(len(A))
    return JetPolynomial._from_array(
        A.num_vars, A.max_degree,
        _graded_solve(A._c, identity, A.num_vars, A.max_degree))
