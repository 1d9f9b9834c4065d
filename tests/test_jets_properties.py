"""Property tests of the jet engine against oracles that do not use it.

Polynomials are generated as plain exponent -> coefficient dicts; the
oracles evaluate and differentiate those dicts directly, term by term.
"""

import collections
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubegeom import jets
from tubegeom.jets import (JetPolynomial, matrix_inverse, wirtinger_z,
                           wirtinger_zbar)

from jet_reference import identity_gap, stack_jets

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SETTINGS = settings(max_examples=40, deadline=None)

coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def polynomial(draw, num_vars, max_degree, max_terms=8):
    """Dict of up to ``max_terms`` monomials of total degree <= max_degree."""
    exponents = st.lists(st.integers(0, max_degree), min_size=num_vars,
                         max_size=num_vars).filter(lambda e: sum(e) <= max_degree)
    terms = draw(st.dictionaries(exponents.map(tuple), coefficient,
                                 max_size=max_terms))
    return {p: c for p, c in terms.items() if c != 0.0}


def oracle_value(terms, point):
    return sum(c * np.prod([x ** e for x, e in zip(point, p)])
               for p, c in terms.items())


def oracle_partial(terms, var):
    out = {}
    for p, c in terms.items():
        if p[var]:
            q = list(p)
            q[var] -= 1
            out[tuple(q)] = out.get(tuple(q), 0.0) + c * p[var]
    return out


@st.composite
def product_case(draw):
    num_vars = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 6))
    deg_a = draw(st.integers(0, bound))
    a = draw(polynomial(num_vars, deg_a))
    b = draw(polynomial(num_vars, bound - deg_a))
    point = draw(st.lists(st.floats(-1.0, 1.0), min_size=num_vars,
                          max_size=num_vars))
    return num_vars, bound, a, b, np.array(point)


@SETTINGS
@given(product_case())
def test_product_evaluates_to_product_of_values(case):
    num_vars, bound, a, b, point = case
    jet_a = JetPolynomial(num_vars, bound, a)
    jet_b = JetPolynomial(num_vars, bound, b)
    want = oracle_value(a, point) * oracle_value(b, point)
    assert (jet_a * jet_b).evaluate(point) == pytest.approx(want, abs=1e-11)
    assert jet_a.evaluate(point) == pytest.approx(oracle_value(a, point), abs=1e-12)


@SETTINGS
@given(st.data())
def test_partial_matches_analytic_derivative(data):
    num_vars = data.draw(st.integers(1, 5))
    max_degree = data.draw(st.integers(0, 6))
    terms = data.draw(polynomial(num_vars, max_degree))
    var = data.draw(st.integers(0, num_vars - 1))
    got = JetPolynomial(num_vars, max_degree, terms).partial(var)
    want = oracle_partial(terms, var)
    assert set(got.coeffs) == {p for p, c in want.items() if c != 0.0}
    for p, c in want.items():
        assert got.coefficient(p) == c  # one product per term: exact


@SETTINGS
@given(st.data())
def test_layout_codes_order_blocks_and_add_under_products(data):
    num_vars = data.draw(st.integers(1, 6))
    max_degree = data.draw(st.integers(0, 6))
    layout = jets._layout(num_vars, max_degree)
    for d in range(max_degree + 1):
        assert np.all(np.diff(layout.codes[layout.block(d)]) > 0)
    # index inverts exponents, on rows of mixed degrees in any order
    picks = data.draw(st.lists(st.integers(0, layout.size - 1), max_size=20))
    assert layout.index(layout.exponents[picks].reshape(-1, num_vars)).tolist() == picks
    m1 = data.draw(st.integers(0, layout.size - 1))
    room = max_degree - int(layout.exponents[m1].sum())  # m2 of degree <= room
    m2 = data.draw(st.integers(0, int(layout.offsets[room + 1]) - 1))
    want = layout.exponents[m1] + layout.exponents[m2]
    product = layout.index(want)
    np.testing.assert_array_equal(layout.exponents[product], want)
    assert layout.codes[product] == layout.codes[m1] + layout.codes[m2]


def oracle_values(terms, points):
    """``oracle_value`` at each row of ``points``, one term at a time."""
    out = np.zeros(len(points), dtype=complex)
    for p, c in terms.items():
        out += c * np.prod(points ** np.array(p), axis=1)
    return out


def dense_terms(rng, num_vars, top, complex_coeffs):
    """Every monomial of degree <= top with a random coefficient."""
    exps = [e for e in np.ndindex(*(top + 1,) * num_vars) if sum(e) <= top]
    values = rng.uniform(-1.0, 1.0, len(exps))
    if complex_coeffs:
        values = values + 1j * rng.uniform(-1.0, 1.0, len(exps))
    return dict(zip(exps, values.tolist()))


def first_variable(exponents):
    return next(i for i, e in enumerate(exponents) if e)


def bidegree(exponents):
    """(left, right) degrees of a monomial under the split of ``evaluate``:
    the first num_vars // 2 variables, then the rest."""
    cut = len(exponents) // 2
    return sum(exponents[:cut]), sum(exponents[cut:])


# which terms of degree <= top a case keeps
LIVE = {
    "all": lambda p, top: True,
    "top": lambda p, top: sum(p) == top,
    # all but the top-degree runs whose first variable is even
    "holes": lambda p, top: sum(p) < top or first_variable(p) % 2,
    # an MA residual: degrees top - 2 and top, even left and right degrees
    "even": lambda p, top: sum(p) >= top - 2 and not any(d % 2 for d in bidegree(p)),
    # no right degree 1: the live right degrees of a left degree skip it
    "gap": lambda p, top: bidegree(p)[1] != 1,
}


def evaluate_case(num_vars, max_degree, top, count, live="all", shape=()):
    """A case of the evaluate test: ``live`` names the terms kept (``LIVE``),
    ``shape`` the leading axes of the jet."""
    name = f"{num_vars}-{max_degree}-{top}-{count}"
    if live != "all":
        name += f"-{live}"
    if shape:
        name += "-" + "x".join(map(str, shape))
    return pytest.param(num_vars, max_degree, top, count, live, shape, id=name)


@pytest.mark.parametrize("complex_coeffs", [False, True])
@pytest.mark.parametrize("num_vars, max_degree, top, count, live, shape", [
    evaluate_case(1, 5, 5, 7), evaluate_case(3, 6, 4, 50), evaluate_case(5, 4, 2, 30),
    evaluate_case(2, 0, 0, 5), evaluate_case(3, 4, 0, 20), evaluate_case(4, 3, 1, 20),
    evaluate_case(4, 6, 6, 40, "top"), evaluate_case(3, 5, 5, 40, "holes"),
    evaluate_case(4, 6, 3, 40, "holes"), evaluate_case(1, 4, 4, 9, "gap"),
    evaluate_case(7, 5, 5, 30), evaluate_case(5, 6, 6, 30, "even"),
    evaluate_case(8, 6, 6, 40, "even"), evaluate_case(6, 7, 6, 30, "gap"),
    evaluate_case(5, 5, 4, 30, "gap"), evaluate_case(4, 4, 4, 20, shape=(2, 2)),
    evaluate_case(3, 5, 5, 20, "holes", shape=(3,)), evaluate_case(4, 6, 6, 0),
    evaluate_case(5, 3, 3, 0, shape=(2, 2)),
    evaluate_case(8, 6, 6, None),  # count None: one chunk of points plus 5
])
def test_evaluate_matches_term_by_term_oracle(num_vars, max_degree, top, count, live,
                                              shape, complex_coeffs):
    rng = np.random.default_rng([num_vars, top, *shape])
    # in a complex case with leading axes, the odd entries are complex and
    # the even ones real
    entries = [{p: c for p, c in dense_terms(rng, num_vars, top,
                                             complex_coeffs and (k % 2 or not shape)).items()
                if LIVE[live](p, top)}
               for k in range(int(np.prod(shape)))]
    coeffs = np.array([JetPolynomial(num_vars, max_degree, terms)._c for terms in entries])
    jet = JetPolynomial._from_array(num_vars, max_degree, coeffs.reshape(shape + (-1,)))
    assert jet.shape == shape and jet.degree() == top
    if count is None:
        # per chunk of points evaluate holds the monomial rows of both halves
        # and its largest product: one row per coefficient part (real, and
        # imaginary) and left monomial of one degree
        cut = num_vars // 2
        lefts = {p[:cut] for p in entries[0]}
        parts = 2 if complex_coeffs else 1
        held = (len(lefts) + len({p[cut:] for p in entries[0]})
                + parts * max(collections.Counter(map(sum, lefts)).values()))
        count = jets._EVAL_CHUNK // held + 5
        assert count < 2 * (jets._EVAL_CHUNK // held)
    points = rng.uniform(-1.0, 1.0, size=(count, num_vars))
    want = np.array([oracle_values(terms, points) for terms in entries])
    want = want.reshape(shape + (count,))
    got = jet.evaluate(points)
    assert got.shape == shape + (count,)
    assert np.iscomplexobj(got) == complex_coeffs
    scale = max(1.0, np.max(np.abs(want), initial=0.0))
    assert np.all(np.abs(got - want) < 1e-12 * scale)
    if count:
        single = jet.evaluate(points[-1])
        assert np.shape(single) == shape
        assert np.all(np.abs(single - want[..., -1])
                      < 1e-12 * max(1.0, np.max(np.abs(want[..., -1]))))


@SETTINGS
@given(st.data())
def test_derivatives_at_origin_match_repeated_partials(data):
    num_vars = data.draw(st.integers(1, 4))
    max_degree = data.draw(st.integers(0, 5))
    order = data.draw(st.integers(0, max_degree))
    terms = data.draw(polynomial(num_vars, max_degree))
    got = JetPolynomial(num_vars, max_degree, terms).derivatives_at_origin(order)
    assert got.shape == (num_vars,) * order
    for index in np.ndindex(*got.shape):
        want = terms
        for var in index:
            want = oracle_partial(want, var)
        # the partials multiply by one exponent at a time, the table by prod a!
        assert got[index] == pytest.approx(want.get((0,) * num_vars, 0.0),
                                           rel=1e-15, abs=0.0)


@st.composite
def near_identity_matrix(draw):
    size = draw(st.integers(1, 3))
    num_vars = draw(st.integers(1, 3))
    bound = draw(st.integers(1, 4))
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            re = draw(polynomial(num_vars, bound, max_terms=4))
            im = draw(polynomial(num_vars, bound, max_terms=4))
            entry = (JetPolynomial(num_vars, bound, re)
                     + 1j * JetPolynomial(num_vars, bound, im)) * 0.2
            row.append(entry + (1.0 if i == j else 0.0))
        rows.append(row)
    return stack_jets(rows)


@SETTINGS
@given(near_identity_matrix())
def test_inverse_times_matrix_is_identity_through_the_bound(A):
    inverse = matrix_inverse(A)
    assert inverse.shape == A.shape and inverse.max_degree == A.max_degree
    assert identity_gap(A, inverse) < 1e-10


def golden_jets():
    """The jets whose coefficients the fixture records; every coefficient
    is exactly representable, so the comparison can be exact whatever the
    summation order."""
    a = JetPolynomial(4, 4, {(0, 0, 0, 0): 1.5, (1, 0, 0, 0): -2.0,
                             (0, 0, 2, 0): 0.25, (1, 1, 0, 1): 0.75,
                             (0, 2, 0, 2): -0.125, (2, 0, 0, 0): 3.0,
                             (0, 1, 1, 0): -0.5})
    return [a, a * a, wirtinger_z(a, 0, 2),
            wirtinger_zbar(wirtinger_z(a, 1, 2), 0, 2),
            (a - 0.5 * a.partial(2)).truncated(2), JetPolynomial.zero(3, 2)]


def _golden_coeffs(line):
    """The exponent -> coefficient dict of one fixture line, a jet record
    {"num_vars", "max_degree", "terms": [{"powers", "re", "im"}, ...]}."""
    record = json.loads(line)
    return (record["num_vars"], record["max_degree"],
            {tuple(t["powers"]): complex(t["re"], t["im"]) for t in record["terms"]})


def test_jet_results_match_golden_fixture():
    lines = (FIXTURES / "jets_golden.jsonl").read_text().splitlines()
    jets = golden_jets()
    assert len(lines) == len(jets)
    for jet, line in zip(jets, lines):
        num_vars, max_degree, coeffs = _golden_coeffs(line)
        assert (jet.num_vars, jet.max_degree) == (num_vars, max_degree)
        assert jet.coeffs == coeffs
