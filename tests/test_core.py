import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krichever import _kernels_py
from krichever.core import (
    MAX_EXPONENT,
    Poly,
    Series1,
    Series2,
    VarTable,
    b_vars,
    compose1,
    cp_vars,
    formal_group_law,
    keys_of_weight,
    p_vars,
    q_vars,
)
from oracles import (
    is_symmetric,
    parse_poly,
    partition_count,
    poly_from_json,
    poly_pow,
    poly_weight,
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
        acc = acc.mul(gt) + f.coeffs[k]
    return acc


def horner_compose1(f, g2):
    n = min(f.order, g2.order)
    gt = g2.truncate(n)
    acc = Series2(f.vars, n, {(0, 0): f.coeffs[n]})
    for k in range(n - 1, -1, -1):
        acc = acc.mul(gt)
        if f.coeffs[k]:
            acc = acc + Series2(f.vars, n, {(0, 0): f.coeffs[k]})
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


@st.composite
def graded_polys(draw):
    """(poly, weight to ask for): homogeneous, mixed or zero polynomials over
    Z[b1..b5] or Q[q1..q4]; the weight asked for is None, the weight of a
    term, or one that no term has."""
    vars = draw(st.sampled_from([b_vars(5), q_vars()]))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 3)] * len(vars.names)), max_size=5))
    if monomials and draw(st.booleans()):
        w = vars.monomial_weight(monomials[0])
        monomials = [m for m in monomials if vars.monomial_weight(m) == w]
    poly = Poly(vars, {m: draw(st.integers(1, 9)) for m in monomials})
    weights = [vars.monomial_weight(m) for m in monomials]
    absent = [-1, 0, max(weights, default=0) + 1]
    weight = draw(st.one_of(st.none(), st.sampled_from(weights + absent)))
    return poly, weight


class TestPoly:
    def test_arithmetic(self):
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        p2 = Poly.var(pv, "p2")
        q = (p1 + p2) * (p1 - p2)
        assert q == p1 * p1 - p2 * p2
        assert (p1 - p1).is_zero
        assert p1 * 0 == Poly.zero(pv)
        assert (p1 * Fraction(1, 2)).coefficient((1, 0, 0, 0)) == Fraction(1, 2)

    def test_pow(self):
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        assert poly_pow(p1, 0) == Poly.one(pv)
        assert poly_pow(p1 + 1, 3) == poly_pow(p1, 3) + 3 * poly_pow(p1, 2) + 3 * p1 + 1

    def test_mismatched_tables(self):
        with pytest.raises(ValueError):
            Poly.var(p_vars(), "p1") * Poly.var(cp_vars(2), "CP1")

    def test_weight(self):
        pv = p_vars()
        m = Poly.var(pv, "p1", power=2) * Poly.var(pv, "p2")
        assert poly_weight(m) == 4
        assert m.is_homogeneous(4)
        assert not (m + Poly.var(pv, "p1")).is_homogeneous()

    @given(graded_polys())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_homogeneity_gate_matches_unpacking(self, case):
        poly, weight = case
        assert poly.is_homogeneous(weight) == unpacked_is_homogeneous(poly, weight)

    def test_text_round_trip(self):
        pv = p_vars()
        p = parse_poly("35/128*p1^4 - 15/16*p1^2*p2 + 3/8*p2^2 + 3/4*p1*p3 - 1/2*p4", pv)
        assert parse_poly(p.text(), pv) == p
        assert parse_poly("0", pv).is_zero
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

    def test_json_rejects_wrong_exponent_length(self):
        pv = p_vars()
        for exps in ([1, 0, 0], [1, 0, 0, 0, 0]):
            with pytest.raises(ValueError):
                poly_from_json([{"coeff": "1", "exps": exps}], pv)

    def test_integral_product_keeps_int_coefficients(self):
        bv = b_vars(3)
        p = poly_pow(Poly.var(bv, "b1", coeff=3) + Poly.var(bv, "b3") - 2, 4)
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
            assert dict(got.sorted_terms()) == want

    def test_product_reaching_a_guard_bit_raises(self):
        pv = p_vars()
        top = Poly.var(pv, "p2", power=MAX_EXPONENT)
        assert (top * Poly.var(pv, "p1", power=MAX_EXPONENT)).coefficient(
            (MAX_EXPONENT, MAX_EXPONENT, 0, 0)
        ) == 1
        with pytest.raises(OverflowError):
            top * Poly.var(pv, "p2")
        half = Poly.var(pv, "p1", power=64)
        with pytest.raises(OverflowError):
            half * half
        # p1^128 cancels, but the degree p1^129 of the product survives
        with pytest.raises(OverflowError):
            (half + Poly.var(pv, "p1", power=65)) * (half - Poly.var(pv, "p1", power=63))
        with pytest.raises(OverflowError):
            Poly.var(pv, "p1", power=MAX_EXPONENT + 1)
        # the two products of p1^128 cancel in the sum, but each one alone
        # raises, so their dot product does too, in the kernel and in Poly
        with pytest.raises(OverflowError):
            Poly.dot(pv, [(half, half), (-half, half)])
        dot_terms = _kernels_py.poly_dot_terms
        with pytest.raises(OverflowError):
            dot_terms([(half.terms, half.terms), ((-half).terms, half.terms)], pv.guard)
        # a sum that cancels below the guard is zero, not an error
        assert dot_terms([(top.terms, half.terms), ((-top).terms, half.terms)], pv.guard) == {}

    def test_negative_exponent_raises(self):
        pv = p_vars()
        with pytest.raises(ValueError):
            Poly(pv, {(0, -1, 0, 0): 1})
        with pytest.raises(ValueError):
            Poly.var(pv, "p3", power=-1)
        with pytest.raises(ValueError):
            Poly.var(pv, "p1").coefficient((-1, 0, 0, 0))

    def test_wrong_exponent_length_raises(self):
        pv = p_vars()
        p1 = Poly.var(pv, "p1")
        for exps in ((1, 0, 0), (1, 0, 0, 0, 0), (0, 0, 0, 0, 1)):
            with pytest.raises(ValueError):
                Poly(pv, {exps: 1})
            with pytest.raises(ValueError):
                p1.coefficient(exps)

    def test_substitute(self):
        cv = cp_vars(2)
        pv = p_vars()
        img = {"CP1": Poly.var(pv, "p1"), "CP2": Poly.var(pv, "p1", power=2)}
        poly = Poly.var(cv, "CP1") * Poly.var(cv, "CP2") + Poly.const(cv, 2)
        assert poly.substitute(img, pv) == Poly.var(pv, "p1", power=3) + 2


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
        assert scalar_series([3], 0).derivative() == Series1.zero(SCALARS, 0)

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


def polys(vars, scalars):
    """Small polynomials, not necessarily homogeneous, over ``vars``."""
    monomials = st.tuples(*[st.integers(0, 2)] * len(vars.names))
    return st.dictionaries(monomials, scalars, max_size=3).map(
        lambda terms: Poly(vars, terms)
    )


def series(vars, scalars, head, max_tail=4):
    """Series with the given leading scalars and random polynomial tail."""
    return st.lists(polys(vars, scalars), min_size=1, max_size=max_tail).map(
        lambda tail: Series1(
            vars, len(head) + len(tail) - 1, [Poly.const(vars, c) for c in head] + tail
        )
    )


def bivariate(vars, scalars, order=4):
    """Series2 of valuation >= 1 with a few random polynomial coefficients."""
    slots = [(i, j) for i in range(order + 1) for j in range(order + 1 - i) if i + j]
    return st.dictionaries(st.sampled_from(slots), polys(vars, scalars), max_size=4).map(
        lambda coeffs: Series2(vars, order, coeffs)
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
            for bad in (g + 1, g + Series1(vars, 1, [Poly.zero(vars), Poly.one(vars)])):
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
                    st.lists(polys(vars, scalars), min_size=d + 1, max_size=d + 1),
                    st.integers(d, 8),
                )
            ),
            series(vars, scalars, [0], max_tail=8),
        )
        @settings(max_examples=40, deadline=None)
        def check_low_degree(head, g):
            coeffs, order = head
            f = Series1(vars, order, coeffs + [Poly.zero(vars)] * (order + 1 - len(coeffs)))
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
            assert h == horner_compose1(f, g2)
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
            # F + swap(F) is symmetric, so subs_xy computes half and mirrors
            for G in (F, F + swap(F)):
                out = G.subs_xy(s)
                assert out == two_series_subs_xy(G, s, s)
                assert out.order == G.order
                if ring.startswith("Z"):
                    assert _all_int(out.coeffs.values())
            with pytest.raises(ValueError, match="zero constant terms"):
                F.subs_xy(s + 1)

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
            assert F == horner_compose1(exp, Series2(vars, n, logs))
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
    def test_dot_is_the_sum_of_its_products(self, ring):
        vars, scalars = RINGS[ring]
        pairs = st.lists(st.tuples(polys(vars, scalars), polys(vars, scalars)), max_size=5)

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
        assert swap(t) == Series2(bv, 3, {(1, 2): Poly.one(bv)})

    def test_mul_and_diagonal(self):
        bv = b_vars(1)
        x = Series2(bv, 4, {(1, 0): Poly.one(bv)})
        y = Series2(bv, 4, {(0, 1): Poly.one(bv)})
        prod = (x - y).mul(x - y)
        assert prod.coefficient(1, 1) == Poly.const(bv, -2)
        # y = x: every antidiagonal of (x - y)^2 sums to 0
        for k in range(prod.order + 1):
            diagonal = [prod.coefficient(i, k - i) for i in range(k + 1)]
            assert sum(diagonal, Poly.zero(bv)).is_zero

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


def full_depth_monomials(vars, w):
    """Every exponent tuple of weight w, each branch recursed over all variables."""
    n = len(vars.names)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        wt = vars.weights[i]
        for e in range(rem // wt, -1, -1):
            acc.append(e)
            rec(i + 1, rem - e * wt, acc)
            acc.pop()

    rec(0, w, [])
    out.sort(reverse=True)
    return out


def test_weighted_monomials_keep_their_order():
    # lattice.BasisIndex rows, and with them the HNF work, follow this order
    tables = [b_vars(n) for n in range(1, 17)] + [cp_vars(12), p_vars()]
    for vars in tables:
        for w in range(len(vars.names) + 1):
            assert weighted_monomials(vars, w) == full_depth_monomials(vars, w), (vars, w)
    uneven = VarTable(["u", "v", "z"], [3, 2, 5])
    for w in range(16):
        assert weighted_monomials(uneven, w) == full_depth_monomials(uneven, w), w


def test_variable_tables_are_shared():
    # one table per argument, so state cached on a table is built once
    assert q_vars() is q_vars()
    assert p_vars() is p_vars()
    assert cp_vars(4) is cp_vars(4)
    assert b_vars(6) is b_vars(6)
    assert b_vars(6) is not b_vars(5)


def test_keys_of_weight_are_the_packed_monomials():
    uneven = VarTable(["u", "v", "z"], [3, 2, 5])
    for vars in (b_vars(8), q_vars(), uneven):
        for w in range(-2, 14):
            packed = {vars.pack(m) for m in full_depth_monomials(vars, w)}
            assert keys_of_weight(vars.weights, w) == packed, (vars, w)
    # an exponent past MAX_EXPONENT has no key
    assert keys_of_weight((1,), MAX_EXPONENT) == {MAX_EXPONENT}
    assert keys_of_weight((1,), MAX_EXPONENT + 1) == frozenset()


def test_grading_of_log_family():
    from krichever.genus import mishchenko_log, mog_series

    cv = cp_vars(6)
    assert mishchenko_log(cv, 7).is_graded(-1)
    assert mog_series(cv, 7).is_graded(-1)
