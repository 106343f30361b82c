import math
from copy import copy
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krichever import _kernels_py, genus
from krichever.core import (
    Poly,
    Series1,
    Series2,
    VarTable,
    b_vars,
    compose1,
    cp_vars,
    formal_group_law,
    p_vars,
    q_vars,
)
from krichever.lattice import BasisIndex
from oracles import (
    add2,
    is_graded,
    is_symmetric,
    parse_poly,
    partition_count,
    poly_from_json,
    poly_pow,
    poly_weight,
    recurrence_reciprocal,
    ref_text,
    ref_to_json,
    row_exponents,
    swap,
    two_series_subs_xy,
    unpacked_is_homogeneous,
    weighted_monomials,
)

SCALARS = VarTable([], [])


def scalar_series(coeffs, order=None):
    if order is None:
        order = len(coeffs) - 1
    return Series1.from_scalars(SCALARS, order, coeffs)


# Reference oracles: composition by Horner's rule, and reversion that
# recomposes f o g at every step.  Slow, but independent of the sums of
# powers and the table of powers that compose, compose_inverse, compose1,
# revert and formal_group_law use.
def horner_compose(f, g):
    n = min(f.order, g.order)
    acc = Series1(f.vars, n, [f.coeffs[n]] + [Poly.zero(f.vars)] * n)
    gt = g.truncate(n)
    for k in range(n - 1, -1, -1):
        acc = acc.mul(gt)
        acc = Series1(f.vars, n, [acc.coeffs[0] + f.coeffs[k]] + acc.coeffs[1:])
    return acc


def horner_compose1(f, g2):
    n = min(f.order, g2.order)
    gt = g2.truncate(n)
    acc = Series2(f.vars, n, {(0, 0): f.coeffs[n]})
    for k in range(n - 1, -1, -1):
        acc = acc.mul(gt)
        if f.coeffs[k]:
            acc = add2(acc, Series2(f.vars, n, {(0, 0): f.coeffs[k]}))
    return acc


def recompose_revert(f):
    n = f.order
    g = [Poly.zero(f.vars), Poly.one(f.vars)] + [Poly.zero(f.vars)] * (n - 1)
    for k in range(2, n + 1):
        # g_k enters [x^k] f(g) linearly with unit coefficient
        err = horner_compose(f.truncate(k), Series1(f.vars, k, g[: k + 1])).coeffs[k]
        g[k] = -err
    return Series1(f.vars, n, g)


# Reference for Poly: tuple exponent keys and int-or-Fraction coefficients,
# with the multiply (the kernel's loop) and the add loop of the earlier
# representation copied verbatim, and the other operations built on them.
def _as_scalar(c):
    """An exact scalar as ``int`` when integral, else as ``Fraction``."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact scalar: {c!r}")


def ref_mul(aterms, bterms):
    if len(aterms) > len(bterms):
        aterms, bterms = bterms, aterms
    bitems = list(bterms.items())
    out = {}
    for ea, ca in aterms.items():
        for eb, cb in bitems:
            key = tuple(map(add, ea, eb))
            if key in out:
                out[key] += ca * cb
            else:
                out[key] = ca * cb
    return {e: c for e, c in out.items() if c}


def ref_add(aterms, bterms):
    terms = dict(aterms)
    for e, c in bterms.items():
        s = terms.get(e, 0) + c
        if s:
            terms[e] = s
        elif e in terms:
            del terms[e]
    return terms


def ref_terms(terms):
    return {e: _as_scalar(c) for e, c in terms.items() if c}


def ref_neg(terms):
    return {e: -c for e, c in terms.items()}


def ref_scale(terms, c):
    return ref_terms({e: c * v for e, v in terms.items()})


def ref_pow(terms, n, nvars):
    out = {(0,) * nvars: 1}
    for _ in range(n):
        out = ref_mul(out, terms)
    return out


def ref_substitute(terms, images, nvars):
    out = {}
    for e, c in terms.items():
        m = {(0,) * nvars: c}
        for img, p in zip(images, e):
            m = ref_mul(m, ref_pow(img, p, nvars))
        out = ref_add(out, m)
    return out


exact_scalars = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


def exact_terms(nvars):
    """Term dicts {exponent tuple: int or Fraction}, zero values included."""
    monomials = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(monomials, exact_scalars, max_size=4)


# Terms the formatter writes apart: a constant, a coefficient of +-1, an
# integer, and a denominator above 1 of either sign.
formatted_terms = st.dictionaries(
    st.one_of(st.just((0, 0, 0, 0)), st.tuples(*[st.integers(0, 2)] * 4)),
    st.one_of(st.sampled_from([1, -1]), exact_scalars),
    max_size=6,
)


@st.composite
def graded_polys(draw):
    """(poly, weight to ask for): homogeneous, mixed or zero polynomials over
    Z[b1..b5] or Q[q1..q4]; the weight asked for is the weight of a term or
    one that no term has."""
    vars = draw(st.sampled_from([b_vars(5), q_vars()]))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 3)] * len(vars.names)), max_size=5))
    # only monomials within the layout's top weight have a key
    monomials = [m for m in monomials if vars.monomial_weight(m) <= vars.top]
    if monomials and draw(st.booleans()):
        w = vars.monomial_weight(monomials[0])
        monomials = [m for m in monomials if vars.monomial_weight(m) == w]
    poly = Poly(vars, {m: draw(st.integers(1, 9)) for m in monomials})
    weights = [vars.monomial_weight(m) for m in monomials]
    absent = [-1, 0, max(weights, default=0) + 1]
    weight = draw(st.sampled_from(weights + absent))
    return poly, weight


class TestPoly:
    def test_arithmetic(self):
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        p2 = Poly.var(pv, "p2")
        q = (p1 + p2) * (p1 - p2)
        assert q == p1 * p1 - p2 * p2
        assert not p1 - p1
        assert p1.scale(0) == Poly.zero(pv)
        assert p1.scale(Fraction(1, 2)).sorted_terms() == [((1, 0, 0, 0), (1, 2))]
        # a scalar enters through scale or const, never as an operand
        for op in (lambda: p1 + 1, lambda: 1 - p1, lambda: p1 * Fraction(1, 2), lambda: 2 * p1):
            with pytest.raises(TypeError):
                op()
        assert p1 != 1 and Poly.one(pv) != 1

    def test_pow(self):
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        assert poly_pow(p1, 0) == Poly.one(pv)
        one = Poly.one(pv)
        cube = poly_pow(p1, 3) + poly_pow(p1, 2).scale(3) + p1.scale(3) + one
        assert poly_pow(p1 + one, 3) == cube

    def test_mismatched_tables(self):
        with pytest.raises(ValueError):
            Poly.var(p_vars(), "p1") * Poly.var(cp_vars(2), "CP1")

    def test_weight(self):
        pv = p_vars()
        m = Poly.var(pv, "p1", power=2) * Poly.var(pv, "p2")
        assert poly_weight(m) == 4
        assert m.is_homogeneous(4)
        mixed = m + Poly.var(pv, "p1")
        assert not mixed.is_homogeneous(4) and not mixed.is_homogeneous(1)

    @given(graded_polys())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_homogeneity_gate_matches_unpacking(self, case):
        poly, weight = case
        assert poly.is_homogeneous(weight) == unpacked_is_homogeneous(poly, weight)

    def test_text_round_trip(self):
        pv = p_vars()
        p = parse_poly("35/128*p1^4 - 15/16*p1^2*p2 + 3/8*p2^2 + 3/4*p1*p3 - 1/2*p4", pv)
        assert parse_poly(p.text(), pv) == p
        assert not parse_poly("0", pv)
        assert Poly.zero(pv).text() == "0"
        assert parse_poly("-CP1", cp_vars(1)) == -Poly.var(cp_vars(1), "CP1")

    def test_text_canonical_order(self):
        pv = p_vars()
        p = parse_poly("3/8*p1^2 - 1/2*p2", pv)
        assert p.text() == "3/8*p1^2 - 1/2*p2"

    def test_json_round_trip(self):
        pv = p_vars()
        p = parse_poly("3/8*p1^2 - 1/2*p2 + 7", pv)
        assert poly_from_json(p.to_json(), pv) == p
        assert p.to_json()[0]["coeff"] == "3/8"

    @given(formatted_terms)
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_formatter_matches_fraction_reference(self, terms):
        p = Poly(p_vars(), terms)
        assert p.text() == ref_text(p)
        assert p.to_json() == ref_to_json(p)

    def test_formatter_cases(self):
        pv = p_vars()
        p = parse_poly("-p1*p2 + 3/8*p3 + p1^2 - 5/4*p2 - 4", pv)
        assert p.text() == ref_text(p) == "-p1*p2 + 3/8*p3 + p1^2 - 5/4*p2 - 4"
        assert [t["coeff"] for t in p.to_json()] == ["-1", "3/8", "1", "-5/4", "-4"]
        assert p.to_json() == ref_to_json(p)
        # a common denominator of 8 that the integral terms divide out
        assert p.sorted_terms()[-1] == ((0, 0, 0, 0), (-4, 1))

    @given(exact_terms(3), st.integers(-9, 9), st.integers(1, 12))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_scale_matches_reference(self, terms, num, den):
        got = Poly(cp_vars(3), terms).scale(num, den)
        want = ref_scale(ref_terms(terms), Fraction(num, den))
        assert {e: Fraction(n, d) for e, (n, d) in got.sorted_terms()} == want
        assert got.den > 0 and math.gcd(got.den, *got.terms.values()) == 1
        assert got.terms or got.den == 1
        assert got == Poly(cp_vars(3), terms).scale(Fraction(num, den))

    def test_json_rejects_wrong_exponent_length(self):
        pv = p_vars()
        for exps in ([1, 0, 0], [1, 0, 0, 0, 0]):
            with pytest.raises(ValueError):
                poly_from_json([{"coeff": "1", "exps": exps}], pv)

    def test_integral_product_keeps_int_coefficients(self):
        bv = b_vars(3)
        p = poly_pow(Poly.var(bv, "b1", coeff=3) + Poly.var(bv, "b3") - Poly.const(bv, 2), 4)
        assert len(p.terms) > 1
        assert all(type(c) is int for c in p.terms.values())
        halved = p.scale(2).scale(Fraction(1, 2))
        assert halved == p
        assert all(type(c) is int for c in halved.terms.values())

    @given(
        exact_terms(3),
        exact_terms(3),
        exact_scalars,
        st.integers(0, 3),
        st.lists(exact_terms(2), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_tuple_key_reference(self, a, b, c, k, images):
        cv, bv = cp_vars(3), b_vars(2)
        pa, pb = Poly(cv, a), Poly(cv, b)
        pimages = {name: Poly(bv, img) for name, img in zip(cv.names, images)}
        ra, rb = (ref_terms(t) for t in (a, b))
        rimages = [ref_terms(img) for img in images]
        cases = [
            (pa, ra),
            (pa + pb, ref_add(ra, rb)),
            (pa - pb, ref_add(ra, ref_neg(rb))),
            (pa * pb, ref_mul(ra, rb)),
            (pa.scale(c), ref_scale(ra, c)),
            (poly_pow(pa, k), ref_pow(ra, k, 3)),
            (pa.substitute(pimages, bv), ref_substitute(ra, rimages, 2)),
        ]
        for got, want in cases:
            assert got.den > 0
            assert all(type(v) is int for v in got.terms.values())
            assert math.gcd(got.den, *got.terms.values()) == 1
            assert got.terms or got.den == 1
            assert {e: Fraction(n, d) for e, (n, d) in got.sorted_terms()} == want

    def test_product_reaching_a_guard_bit_raises(self):
        pv = p_vars()
        # p1^a p2^b p4^c has weight a + 2b + 4c; pv.top (odd) is the largest
        # weight with a key
        p1, p4 = Poly.var(pv, "p1"), Poly.var(pv, "p4")
        high = Poly.var(pv, "p2", power=pv.top // 2)
        assert (high * p1).sorted_terms() == [((1, pv.top // 2, 0, 0), (1, 1))]
        with pytest.raises(OverflowError):
            high * Poly.var(pv, "p2")
        # every exponent field has room, but the weight passes top
        with pytest.raises(OverflowError):
            Poly.var(pv, "p4", power=pv.top // 4) * p4
        e = pv.top // 2 + 1
        half = Poly.var(pv, "p1", power=e)
        with pytest.raises(OverflowError):
            half * half
        # p1^(2e) cancels, but the weight 2e + 1 of the product survives
        with pytest.raises(OverflowError):
            (half + Poly.var(pv, "p1", power=e + 1)) * (half - Poly.var(pv, "p1", power=e - 1))
        with pytest.raises(OverflowError):
            Poly.var(pv, "p1", power=pv.top + 1)
        with pytest.raises(OverflowError):
            Poly(pv, {(0, 0, 0, pv.top // 4 + 1): 1})
        # the two products of p1^(2e) cancel in the sum, but each one alone
        # raises, so their dot product does too, in the kernel and in Poly
        with pytest.raises(OverflowError):
            Poly.dot(pv, [(half, half), (-half, half)])
        dot_terms = _kernels_py.poly_dot_terms
        with pytest.raises(OverflowError):
            dot_terms([(half.terms, half.terms), ((-half).terms, half.terms)], pv.guard)
        # a sum that cancels at the top weight is zero, not an error
        assert dot_terms([(high.terms, p1.terms), ((-high).terms, p1.terms)], pv.guard) == {}

    def test_negative_exponent_raises(self):
        pv = p_vars()
        with pytest.raises(ValueError):
            Poly(pv, {(0, -1, 0, 0): 1})
        with pytest.raises(ValueError):
            Poly.var(pv, "p3", power=-1)
        with pytest.raises(ValueError):
            pv.pack((-1, 0, 0, 0))

    def test_wrong_exponent_length_raises(self):
        pv = p_vars()
        for exps in ((1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)):
            with pytest.raises(ValueError):
                Poly(pv, {exps: 1})
            with pytest.raises(ValueError):
                pv.pack(exps)

    def test_substitute(self):
        cv = cp_vars(2)
        pv = p_vars()
        img = {"CP1": Poly.var(pv, "p1"), "CP2": Poly.var(pv, "p1", power=2)}
        poly = Poly.var(cv, "CP1") * Poly.var(cv, "CP2") + Poly.const(cv, 2)
        assert poly.substitute(img, pv) == Poly.var(pv, "p1", power=3) + Poly.const(pv, 2)


class TestSeries1:
    def test_mul_difference_of_squares(self):
        one_plus = scalar_series([1, 1], 2)
        one_minus = scalar_series([1, -1], 2)
        assert one_plus.mul(one_minus) == scalar_series([1, 0, -1], 2)

    def test_mul_identity(self):
        f = scalar_series([1, 2, 3], 2)
        assert f.mul(Series1.one(SCALARS, 2)) == f

    def test_mul_truncates_remainder(self):
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        f = Series1(pv, 2, [Poly.one(pv), p1, Poly.zero(pv)])
        g = Series1(pv, 2, [Poly.one(pv), -p1, p1 * p1])
        assert f.mul(g) == Series1.one(pv, 2)

    def test_reciprocal_geometric(self):
        f = scalar_series([1, 1], 4)
        assert f.reciprocal() == scalar_series([1, -1, 1, -1, 1], 4)
        assert Series1.one(SCALARS, 3).reciprocal() == Series1.one(SCALARS, 3)

    def test_reciprocal_triangular(self):
        cv = cp_vars(2)
        cp1, cp2 = Poly.var(cv, "CP1"), Poly.var(cv, "CP2")
        f = Series1(cv, 2, [Poly.one(cv), cp1, cp2])
        r = f.reciprocal()
        assert r.coeffs[1] == -cp1
        assert r.coeffs[2] == cp1 * cp1 - cp2
        assert f.mul(r) == Series1.one(cv, 2)

    def test_reciprocal_needs_unit(self):
        with pytest.raises(ValueError):
            scalar_series([2, 1]).reciprocal()

    def test_div_needs_unit(self):
        f = scalar_series([1, 2, 3])
        for g in ([2, 1, 0], [0, 1, 1], [-1, 0, 0]):
            with pytest.raises(ValueError, match="constant term 1"):
                f.div(scalar_series(g))

    def test_div_hand_expansion(self):
        # (1 + x) / (1 - x) = 1 + 2x + 2x^2 + ..., to the lower order
        assert scalar_series([1, 1, 0, 0]).div(scalar_series([1, -1, 0])) == scalar_series(
            [1, 2, 2]
        )

    def test_square_hand_expansion(self):
        f = scalar_series([3, 0, 2, -1])
        assert f.mul(f) == scalar_series([9, 0, 12, -6])
        assert scalar_series([5]).mul(scalar_series([5])) == scalar_series([25])

    def test_compose_identity(self):
        f = scalar_series([5, 1, 7], 2)
        assert f.compose(Series1.identity(SCALARS, 2)) == f

    def test_compose_hand_expansion(self):
        f = scalar_series([0, 1, 1], 4)
        assert f.compose(f) == scalar_series([0, 1, 2, 2, 1], 4)

    def test_compose_needs_zero_constant(self):
        with pytest.raises(ValueError):
            scalar_series([1, 1]).compose(scalar_series([1, 1]))

    def test_revert_identity(self):
        x = Series1.identity(SCALARS, 5)
        assert x.revert() == x

    def test_revert_catalan(self):
        f = scalar_series([0, 1, 1], 4)
        g = f.revert()
        assert g == scalar_series([0, 1, -1, 2, -5], 4)
        assert f.compose(g) == Series1.identity(SCALARS, 4)
        assert g.compose(f) == Series1.identity(SCALARS, 4)

    def test_revert_needs_unit_linear_term(self):
        with pytest.raises(ValueError):
            scalar_series([0, 2, 1]).revert()
        # an order-0 series has no linear term to read
        with pytest.raises(ValueError, match="reversion needs f = x"):
            scalar_series([0]).revert()

    def test_revert_matches_lagrange_inversion(self):
        # independent oracle: g_n = (1/n) [x^(n-1)] (x/f)^n
        f = scalar_series([0, 1, 3, Fraction(-5, 7), 2, Fraction(1, 3)], 5)
        g = f.revert()
        over = Series1(SCALARS, 4, f.coeffs[1:]).reciprocal()
        power = Series1.one(SCALARS, 4)
        for n in range(1, 6):
            power = power.mul(over.truncate(4))
            expected = power.coeffs[n - 1].scale(Fraction(1, n))
            assert g.coeffs[n] == expected

    def test_inv_sqrt(self):
        assert Series1.one(SCALARS, 4).inv_sqrt() == Series1.one(SCALARS, 4)
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        f = Series1(pv, 3, [Poly.one(pv), p1, Poly.zero(pv), Poly.zero(pv)])
        r = f.inv_sqrt()
        assert r.coeffs[1] == p1.scale(Fraction(-1, 2))
        assert r.coeffs[2] == (p1 * p1).scale(Fraction(3, 8))
        assert r.mul(r).mul(f) == Series1.one(pv, 3)
        with pytest.raises(ValueError):
            scalar_series([2, 1], 1).inv_sqrt()

    def test_derivative(self):
        f = scalar_series([0, 0, 1], 2)
        assert f.derivative() == scalar_series([0, 2], 1)
        assert scalar_series([3], 0).derivative() == scalar_series([0])

    def test_truncation_soundness(self):
        f = scalar_series([0, 1, 2, -3, 4, Fraction(1, 5)], 5)
        g = scalar_series([0, 1, -1, 1, -2, 7], 5)
        u = scalar_series([1, 2, -1, 3, 1, -4], 5)
        assert f.mul(g).truncate(3) == f.truncate(3).mul(g.truncate(3))
        assert u.reciprocal().truncate(3) == u.truncate(3).reciprocal()
        assert f.compose(g).truncate(3) == f.truncate(3).compose(g.truncate(3))
        assert f.revert().truncate(3) == f.truncate(3).revert()
        assert u.inv_sqrt().truncate(3) == u.truncate(3).inv_sqrt()


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


class TestRoundTripProperties:
    @given(st.lists(small_fractions, min_size=3, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_mul_round_trip(self, coeffs):
        coeffs[0] = Fraction(1)
        f = scalar_series(coeffs)
        assert f.mul(f.reciprocal()) == Series1.one(SCALARS, f.order)

    @given(st.lists(small_fractions, min_size=3, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_revert_compose_round_trip(self, coeffs):
        coeffs[0] = Fraction(0)
        coeffs[1] = Fraction(1)
        f = scalar_series(coeffs)
        g = f.revert()
        n = f.order
        assert f.compose(g) == Series1.identity(SCALARS, n)
        assert g.compose(f) == Series1.identity(SCALARS, n)
        assert g.revert() == f

    @given(st.lists(small_fractions, min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_inv_sqrt_squares_back(self, coeffs):
        coeffs[0] = Fraction(1)
        f = scalar_series(coeffs)
        r = f.inv_sqrt()
        assert r.mul(r).mul(f.truncate(r.order)) == Series1.one(SCALARS, f.order)


@lru_cache(maxsize=None)
def _monomials(vars, max_weight):
    """Exponent vectors with entries 0..2 and weight at most ``max_weight``."""
    cube = product(range(3), repeat=len(vars.names))
    return [m for m in cube if vars.monomial_weight(m) <= max_weight]


def polys(vars, scalars, max_weight):
    """Small polynomials over ``vars``, not necessarily homogeneous, with every
    monomial of weight at most ``max_weight``."""
    monomials = st.sampled_from(_monomials(vars, max_weight))
    return st.dictionaries(monomials, scalars, max_size=3).map(
        lambda terms: Poly(vars, terms)
    )


# Random series are filtered, not graded: the coefficient of x^k (of x^i y^j,
# i + j = k) is any polynomial of weight at most k.  Every series operation
# and reference here keeps its products within twice the order, so below the
# top weight of the rings' key layouts.
def series(vars, scalars, head, max_tail=4):
    """Series with the given leading scalars and a random filtered tail."""
    start = len(head)
    tails = st.integers(1, max_tail).flatmap(
        lambda t: st.tuples(*[polys(vars, scalars, start + i) for i in range(t)])
    )
    return tails.map(
        lambda tail: Series1(
            vars, start + len(tail) - 1, [Poly.const(vars, c) for c in head] + list(tail)
        )
    )


def bivariate(vars, scalars, order=4):
    """Filtered Series2 of valuation >= 1 with a few random coefficients."""
    slots = [(i, j) for i in range(order + 1) for j in range(order + 1 - i) if i + j]
    return st.lists(st.sampled_from(slots), max_size=4, unique=True).flatmap(
        lambda keys: st.tuples(*[polys(vars, scalars, i + j) for i, j in keys]).map(
            lambda coeffs: Series2(vars, order, dict(zip(keys, coeffs)))
        )
    )


RINGS = {
    "Q[CP1..CP4]": (cp_vars(4), small_fractions),
    "Z[b1..b5]": (b_vars(5), st.integers(-5, 5)),
}


def _all_int(coeffs):
    return all(type(c) is int for p in coeffs for c in p.terms.values())


class TestSeriesAgainstReference:
    @pytest.mark.parametrize("ring", RINGS)
    def test_revert_matches_recompose(self, ring):
        vars, scalars = RINGS[ring]

        @given(series(vars, scalars, [0, 1]))
        @settings(max_examples=40, deadline=None)
        def check(f):
            g = f.revert()
            assert g == recompose_revert(f)
            assert horner_compose(f, g) == Series1.identity(vars, f.order)
            if ring.startswith("Z"):
                assert _all_int(g.coeffs)

        @given(series(vars, scalars, [], max_tail=6), series(vars, scalars, [0, 1]))
        @settings(max_examples=40, deadline=None)
        def check_compose_inverse(f, g):
            h = f.compose_inverse(g)
            n = min(f.order, g.order)
            assert h.order == n
            assert h == horner_compose(f, recompose_revert(g))
            assert h.compose(g) == f.truncate(n)
            if ring.startswith("Z"):
                assert _all_int(h.coeffs)
            unit = Series1(vars, g.order, [Poly.one(vars)] + g.coeffs[1:])
            doubled = Series1(vars, 1, [Poly.zero(vars), g.coeffs[1].scale(2)])
            for bad in (unit, doubled):
                with pytest.raises(ValueError, match="reversion needs f = x"):
                    f.compose_inverse(bad)
            other = Series1.identity(VarTable(["t"], [1]), g.order)
            with pytest.raises(ValueError, match="mismatched variable tables"):
                f.compose_inverse(other)

        check()
        check_compose_inverse()

    @pytest.mark.parametrize("ring", RINGS)
    def test_compose_matches_horner(self, ring):
        vars, scalars = RINGS[ring]

        def agrees(f, g):
            h = f.compose(g)
            assert h == horner_compose(f, g)
            assert h.order == min(f.order, g.order)
            if ring.startswith("Z"):
                assert _all_int(h.coeffs)

        @given(series(vars, scalars, [], max_tail=6), series(vars, scalars, [0]))
        @settings(max_examples=40, deadline=None)
        def check(f, g):
            agrees(f, g)

        # f of degree d <= 4 inside order up to 8: compose fills the table
        # of powers only to row d
        @given(
            st.integers(0, 4).flatmap(
                lambda d: st.tuples(
                    st.tuples(*[polys(vars, scalars, k) for k in range(d + 1)]),
                    st.integers(d, 8),
                )
            ),
            series(vars, scalars, [0], max_tail=8),
        )
        @settings(max_examples=40, deadline=None)
        def check_low_degree(head, g):
            coeffs, order = head
            f = Series1(vars, order, list(coeffs) + [Poly.zero(vars)] * (order + 1 - len(coeffs)))
            agrees(f, g)

        check()
        check_low_degree()

    @pytest.mark.parametrize("ring", RINGS)
    def test_compose1_matches_horner(self, ring):
        vars, scalars = RINGS[ring]

        @given(series(vars, scalars, [], max_tail=6), bivariate(vars, scalars))
        @settings(max_examples=40, deadline=None)
        def check(f, g2):
            h = compose1(f, g2)
            assert h.coeffs == horner_compose1(f, g2).coeffs
            assert h.order == min(f.order, g2.order)
            if ring.startswith("Z"):
                assert _all_int(h.coeffs.values())

        check()

    @pytest.mark.parametrize("ring", RINGS)
    def test_subs_xy_matches_two_series(self, ring):
        vars, scalars = RINGS[ring]

        @given(bivariate(vars, scalars), series(vars, scalars, [0]))
        @settings(max_examples=40, deadline=None)
        def check(F, s):
            # subs_xy raises when F's order passes s's, as truncate does
            F = F.truncate(min(F.order, s.order))
            # subs_xy takes only a symmetric series, such as F + swap(F)
            G = add2(F, swap(F))
            out = G.subs_xy(s)
            assert out.coeffs == two_series_subs_xy(G, s, s).coeffs
            assert out.order == G.order
            if ring.startswith("Z"):
                assert _all_int(out.coeffs.values())
            if not is_symmetric(F):
                with pytest.raises(ValueError, match="symmetric"):
                    F.subs_xy(s)
            with pytest.raises(ValueError, match="zero constant terms"):
                G.subs_xy(Series1(vars, s.order, [Poly.one(vars)] + s.coeffs[1:]))

        check()


    @pytest.mark.parametrize("ring", RINGS)
    def test_formal_group_law_matches_horner(self, ring):
        vars, scalars = RINGS[ring]

        @given(series(vars, scalars, [], max_tail=6), series(vars, scalars, [0]))
        @settings(max_examples=40, deadline=None)
        def check(exp, log):
            n = min(exp.order, log.order)
            # log(x) + log(y); log has no constant term, so the slots are disjoint
            logs = {s: c for k, c in enumerate(log.coeffs[: n + 1]) for s in ((k, 0), (0, k))}
            F = formal_group_law(exp, log)
            assert F.coeffs == horner_compose1(exp, Series2(vars, n, logs)).coeffs
            assert F.order == n
            if ring.startswith("Z"):
                assert _all_int(F.coeffs.values())

        check()
        with pytest.raises(ValueError):
            formal_group_law(Series1.identity(vars, 2), Series1.one(vars, 2))

    @pytest.mark.parametrize("ring", RINGS)
    def test_reciprocal_and_inv_sqrt_round_trip(self, ring):
        vars, scalars = RINGS[ring]

        @given(series(vars, scalars, [1]))
        @settings(max_examples=30, deadline=None)
        def check(f):
            one = Series1.one(vars, f.order)
            inv = f.reciprocal()
            assert f.mul(inv) == one
            r = f.inv_sqrt()
            assert r.mul(r).mul(f) == one
            if ring.startswith("Z"):
                assert _all_int(inv.coeffs)

        check()

    @pytest.mark.parametrize("ring", RINGS)
    def test_div_round_trip(self, ring):
        vars, scalars = RINGS[ring]

        @given(series(vars, scalars, []), series(vars, scalars, [1]))
        @settings(max_examples=40, deadline=None)
        def check(f, g):
            n = min(f.order, g.order)
            h = f.div(g)
            assert h.order == n
            assert h.mul(g) == f.truncate(n)
            assert g.reciprocal() == recurrence_reciprocal(g)

        check()

    @pytest.mark.parametrize("ring", RINGS)
    def test_square_is_the_product_with_a_copy(self, ring):
        # the head [] draws orders from 0, any constant term, and zero
        # coefficients; a copy is not ``self``, so it takes the general product
        vars, scalars = RINGS[ring]

        @given(series(vars, scalars, [], max_tail=6))
        @settings(max_examples=60, deadline=None)
        def check(f):
            twin = copy(f)
            assert twin is not f and twin == f
            assert f.mul(f) == f.mul(twin)

        check()

    @pytest.mark.parametrize("ring", RINGS)
    def test_dot_is_the_sum_of_its_products(self, ring):
        vars, scalars = RINGS[ring]
        # any two of these multiply within the top weight
        factors = polys(vars, scalars, vars.top // 2)
        pairs = st.lists(st.tuples(factors, factors), max_size=5)

        @given(pairs)
        @settings(max_examples=40, deadline=None)
        def check(pairs):
            want = {}
            for a, b in pairs:
                for e, c in _kernels_py.poly_mul_terms(a.terms, b.terms).items():
                    want[e] = want.get(e, 0) + c
            terms = [(a.terms, b.terms) for a, b in pairs]
            assert _kernels_py.poly_dot_terms(terms) == {e: c for e, c in want.items() if c}
            assert Poly.dot(vars, pairs) == sum((a * b for a, b in pairs), Poly.zero(vars))

        check()


class TestSeries2:
    def test_symmetry_and_swap(self):
        bv = b_vars(2)
        s = Series2(bv, 3, {(1, 0): Poly.one(bv), (0, 1): Poly.one(bv)})
        assert is_symmetric(s)
        t = Series2(bv, 3, {(2, 1): Poly.one(bv)})
        assert swap(t).coeffs == {(1, 2): Poly.one(bv)}

    def test_mul_and_diagonal(self):
        bv = b_vars(1)
        x_minus_y = Series2(bv, 4, {(1, 0): Poly.one(bv), (0, 1): -Poly.one(bv)})
        prod = x_minus_y.mul(x_minus_y)
        assert prod.coefficient(1, 1) == Poly.const(bv, -2)
        # y = x: every antidiagonal of (x - y)^2 sums to 0
        for k in range(prod.order + 1):
            diagonal = [prod.coefficient(i, k - i) for i in range(k + 1)]
            assert not sum(diagonal, Poly.zero(bv))

    def test_compose1_matches_univariate(self):
        # f(g(x) + 0*y) restricted to y=0 equals f o g
        f = scalar_series([0, 1, 2, 3], 3)
        g = scalar_series([0, 1, -1, 1], 3)
        g2 = Series2(g.vars, 3, {(k, 0): c for k, c in enumerate(g.coeffs)})
        assert compose1(f, g2).at_y_zero() == f.compose(g)

    def test_subs_xy(self):
        bv = b_vars(1)
        F = Series2(bv, 3, {(1, 0): Poly.one(bv), (0, 1): Poly.one(bv)})
        s = Series1.from_scalars(bv, 3, [0, 1, 1])
        out = F.subs_xy(s)
        assert out.coefficient(2, 0) == Poly.one(bv)
        assert out.coefficient(1, 1) == Poly.zero(bv)


def test_weighted_monomials_are_partitions():
    # up to the weight ceiling, lattice.WEIGHT_CEILING = 16
    for n in range(17):
        ms = weighted_monomials(b_vars(n if n else 1), n)
        assert len(ms) == partition_count(n)
        assert ms == sorted(ms, reverse=True)


def test_weighted_monomials_keep_their_order():
    # lattice.BasisIndex rows, and with them the HNF work, follow this order
    for n in range(1, 17):
        vars = b_vars(n)
        for w in range(n + 1):
            rows = row_exponents(vars, BasisIndex(vars, w))
            assert sorted(rows, reverse=True) == weighted_monomials(vars, w), (vars, w)


LAYOUT_TABLES = [
    *(b_vars(n) for n in range(1, 19)),
    *(cp_vars(n) for n in range(1, 19)),
    p_vars(),
    q_vars(),
    VarTable(["u", "v", "z"], [3, 2, 5]),
]


@st.composite
def monomials_within(draw, vars, budget):
    """An exponent vector over ``vars`` of weight at most ``budget``: the
    variables, in a drawn order, each take an exponent the rest allows."""
    exps = [0] * len(vars.names)
    for i in draw(st.permutations(range(len(exps)))):
        exps[i] = draw(st.integers(0, budget // vars.weights[i]))
        budget -= exps[i] * vars.weights[i]
    return tuple(exps)


def tables_and_monomials(count):
    """A table of ``LAYOUT_TABLES`` and ``count`` monomials with keys over it."""
    return st.sampled_from(LAYOUT_TABLES).flatmap(
        lambda vars: st.tuples(st.just(vars), *[monomials_within(vars, vars.top)] * count)
    )


class TestKeyLayout:
    @given(tables_and_monomials(1))
    @settings(max_examples=300, deadline=None)
    def test_pack_unpack_round_trip(self, case):
        vars, m = case
        key = vars.pack(m)
        assert vars.unpack(key) == m
        assert 0 <= key < vars.guard

    def test_every_variable_at_its_largest_exponent(self):
        for vars in LAYOUT_TABLES:
            assert vars.top >= max(vars.weights)
            for i, w in enumerate(vars.weights):
                m = tuple(vars.top // w if j == i else 0 for j in range(len(vars.names)))
                assert vars.unpack(vars.pack(m)) == m, (vars, i)
                assert vars.unit(i) == vars.pack(tuple(int(j == i) for j in range(len(m))))

    @given(tables_and_monomials(2))
    @settings(max_examples=300, deadline=None)
    def test_key_of_a_product_is_the_sum_of_the_keys(self, case):
        vars, a, b = case
        ab = tuple(map(add, a, b))
        key = vars.pack(a) + vars.pack(b)
        if vars.monomial_weight(ab) <= vars.top:
            assert key == vars.pack(ab)
        else:
            # past the top weight the guard bit is set, and the product has no key
            assert key & vars.guard
            with pytest.raises(OverflowError):
                vars.pack(ab)

    @given(monomials_within(p_vars(), p_vars().top))
    @settings(max_examples=100, deadline=None)
    def test_p_and_q_pack_a_monomial_to_the_same_key(self, m):
        # tables of equal weights pack alike, so psi_table over p and
        # t_psi_table over q hold the same keys
        key = p_vars().pack(m)
        assert q_vars().pack(m) == key
        assert q_vars().unpack(key) == m

    def test_benchmark_tables_have_one_digit_keys(self):
        """Every key, and every sum of two keys the product kernel forms, of
        the tables of ``reproduce-paper --max-weight 13 --order 10`` fits in
        one 30-bit CPython digit, with room for the products they form."""
        for vars, need in ((b_vars(10), 10), (b_vars(13), 13), (cp_vars(12), 12)):
            assert vars.top >= need
            assert 2 * vars.guard <= 2**30, vars
        for vars in (p_vars(), q_vars()):
            assert vars.top > genus.ORDER_CEILING
            assert 2 * vars.guard <= 2**30, vars
        for vars in (b_vars(10), b_vars(13), cp_vars(12), p_vars()):
            monomials = [m for w in range(vars.top + 1) for m in weighted_monomials(vars, w)]
            top = max(map(vars.pack, monomials))
            assert top < 2**30


def test_variable_tables_are_shared():
    # one table per argument, so state cached on a table is built once
    assert q_vars() is q_vars()
    assert p_vars() is p_vars()
    assert cp_vars(4) is cp_vars(4)
    assert b_vars(6) is b_vars(6)
    assert b_vars(6) is not b_vars(5)


def test_weight_gates_take_no_recursion_per_unit_of_weight():
    # both recursed once per unit of weight and overflowed the stack
    x = VarTable(["x"], [1])
    assert Poly.var(x, "x", power=3000).is_homogeneous(3000)


def test_grading_of_log_family():
    from krichever.genus import mishchenko_log, mog_series

    cv = cp_vars(6)
    assert is_graded(mishchenko_log(cv, 7), -1)
    assert is_graded(mog_series(cv, 7), -1)
