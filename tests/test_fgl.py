import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krichever import fgl
from krichever.core import Poly, Series1, Series2, b_vars, cp_vars, formal_group_law
from oracles import (
    add2,
    composed_omega,
    constant_term,
    invariant_pair,
    is_graded,
    is_symmetric,
    literal_associativity,
    omega_hat,
    products_formed,
    proposition_ii_numerator,
    weighted_monomials,
)


@pytest.fixture(scope="module")
def data():
    return fgl.compute_A(fgl.build_universal_fgl(8))


def specialize_b_zero(poly):
    const = constant_term(poly)
    return Poly.const(poly.vars, const)


class TestBuild:
    def test_xy_coefficient(self, data):
        assert data.F.coefficient(1, 1) == Poly.var(data.vars, "b1").scale(2)

    def test_additive_specialization(self, data):
        # b = 0 kills every coefficient except x and y
        for (i, j), c in data.F.coeffs.items():
            expect = 1 if (i, j) in ((1, 0), (0, 1)) else 0
            assert specialize_b_zero(c) == Poly.const(data.vars, expect)
        for k, c in enumerate(data.omega.coeffs):
            assert specialize_b_zero(c) == Poly.const(data.vars, 1 if k == 0 else 0)

    def test_omega_inverts_log_derivative(self, data):
        prod = data.omega.mul(data.log_b.derivative())
        assert prod == Series1.one(data.vars, data.weight)

    @pytest.mark.parametrize("w", range(1, 14))
    def test_omega_matches_the_composed_one(self, w):
        built = fgl.build_universal_fgl(w)
        assert built.omega == composed_omega(built)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sanity_ties_omega_to_the_log(self, k):
        # omega is read off F, so a bump of [x^k y] F moves omega away from
        # 1 / log_b' and only the omega * log_b' gate can see it
        data = fgl.build_universal_fgl(6)
        F = data.F
        coeffs = _bump(F.coeffs, [(k, 1), (1, k)], Poly.var(F.vars, f"b{k}"))
        bad = Series2(F.vars, F.order, coeffs)
        omega = Series1(F.vars, 6, [bad.coefficient(i, 1) for i in range(7)])
        with pytest.raises(AssertionError, match=r"omega \* log_b' != 1"):
            fgl._sanity(data._replace(F=bad, omega=omega))

    def test_log_is_integral_with_cp_images(self, data):
        # log_b coefficients are integer polynomials; (i+1) * coefficient is
        # the image of the bordism generator
        assert all(c.is_integral() for c in data.log_b.coeffs)
        assert is_graded(data.log_b, -1)

    def test_F_symmetric_unital_integral_graded(self, data):
        assert is_symmetric(data.F)
        assert data.F.at_y_zero() == Series1.identity(data.vars, data.weight + 1)
        assert data.F.is_integral()
        assert data.F.is_graded(-1)

    def test_associativity_to_the_law_degree(self, data):
        rep = fgl.verify_associativity(data)
        assert rep.passed, rep.first_failure

    def test_work_of_the_law_build(self, monkeypatch):
        # E(log x, log y) by subs_xy's split at log x feeds the kernel 18,190
        # term products at W = 13; composing exp_b with log x + log y took
        # 100,909.
        w = 13
        bv = b_vars(w)
        bs = [Poly.var(bv, f"b{i}") for i in range(1, w + 1)]
        exp_b = Series1(bv, w + 1, [Poly.zero(bv), Poly.one(bv), *bs])
        log_b = exp_b.revert()
        laws = []
        work = products_formed(monkeypatch, lambda: laws.append(formal_group_law(exp_b, log_b)))
        assert laws[0].order == w + 1
        assert 0 < work <= 25_000

    def test_work_of_the_log_reversion(self, monkeypatch):
        # log_b = x o exp_b^{-1} solved against the table of exp_b, whose
        # coefficients are monomials: 4,746 term products at W = 13; 8,902
        # when the table was of the unknown log_b
        w = 13
        bv = b_vars(w)
        bs = [Poly.var(bv, f"b{i}") for i in range(1, w + 1)]
        exp_b = Series1(bv, w + 1, [Poly.zero(bv), Poly.one(bv), *bs])
        assert 0 < products_formed(monkeypatch, exp_b.revert) <= 5_000


def test_b_model_coefficients_are_int():
    small = fgl.compute_A(fgl.build_universal_fgl(6))
    polys = [*small.F.coeffs.values(), *small.A.coeffs.values()]
    assert polys
    for poly in polys:
        assert all(type(c) is int for c in poly.terms.values())


class TestA:
    def test_diagonal_vanishes(self, data):
        for i in range(5):
            assert not data.A.coefficient(i, i)

    def test_antisymmetry_and_weight(self, data):
        for (i, j), c in data.A.coeffs.items():
            assert data.A.coefficient(j, i) == -c
            assert c.is_homogeneous(i + j - 2)
            assert c.is_integral()

    def test_additive_case(self, data):
        # with b = 0: A = (x+y)(x-y) = x^2 - y^2
        for (i, j), c in data.A.coeffs.items():
            if (i, j) == (2, 0):
                assert specialize_b_zero(c) == Poly.const(data.vars, 1)
            elif (i, j) == (0, 2):
                assert specialize_b_zero(c) == Poly.const(data.vars, -1)
            else:
                assert not specialize_b_zero(c)

    def test_A12_against_naive_expansion(self):
        # independent route at W=2: expand F*(x w(y) - y w(x)) coefficient
        # by coefficient with plain dict arithmetic
        small = fgl.compute_A(fgl.build_universal_fgl(2))
        bv = small.vars
        F = {k: v for k, v in small.F.coeffs.items()}
        w = {k: v for k, v in enumerate(small.omega.coeffs)}
        acc = Poly.zero(bv)
        # [x^1 y^2] of sum_{i,j} F_ij x^i y^j * (x w(y) - y w(x))
        for (i, j), c in F.items():
            # x * w(y) contribution: need i + 1 == 1 and j + k == 2
            if i + 1 == 1 and 2 - j in w:
                acc = acc + c * w[2 - j]
            # - y * w(x) contribution: need j + 1 == 2 and i + k == 1
            if j + 1 == 2 and 1 - i in w:
                acc = acc - c * w[1 - i]
        assert small.A.coefficient(1, 2) == acc
        assert small.A.coefficient(2, 1) == -acc
        assert acc == Poly.var(bv, "b1").scale(-2)

    def test_matches_the_whole_product(self, data):
        # F, like the pair, has zero constant term, so it too is exact at W + 2
        xwy, ywx = invariant_pair(data.omega)
        F = Series2(data.vars, data.weight + 2, data.F.coeffs)
        prod = F.mul(add2(xwy, ywx, -1))
        assert (data.A.order, data.A.coeffs) == (prod.order, prod.coeffs)

    def test_work_of_A(self, monkeypatch):
        # 52,656 term products at W = 13 when A was the whole product
        # F * (x omega(y) - y omega(x)); the slots with i < j need 27,535
        data = fgl.build_universal_fgl(13)
        assert 0 < products_formed(monkeypatch, lambda: fgl.compute_A(data)) <= 30_000

    def test_A_coefficients_read_a_left_out_omega_as_zero(self, data):
        # the additive law x + y leaves out every omega_k with k >= 1
        one = Poly.one(data.vars)
        slots = [(i, j) for j in range(5) for i in range(j)]
        A = fgl.A_coefficients(data.vars, {(1, 0): one, (0, 1): one}, slots)
        assert {s: c for s, c in A.items() if c} == {(0, 2): -one}

    def test_compute_A_leaves_its_argument(self):
        data = fgl.build_universal_fgl(4)
        out = fgl.compute_A(data)
        assert data.A is None
        assert out.A is not None and out.F is data.F


class TestPropositionI:
    @pytest.mark.parametrize("w", [3, 10])
    def test_passes(self, w):
        rep = fgl.verify_proposition_i(fgl.build_universal_fgl(w))
        assert rep.passed, rep.first_failure

    def test_omega_hat_integral_and_additive_case(self, data):
        hat = omega_hat(data.omega)
        for c in hat.coeffs:
            assert c.is_integral()
            assert not specialize_b_zero(c)


class TestPropositionII:
    def test_passes(self, data):
        rep = fgl.verify_proposition_ii(data)
        assert rep.passed, rep.first_failure

    def test_omega_only_slots(self, data):
        # j = 0 column comes from the omega products alone and includes the
        # additive A_20 = 1
        rhs = proposition_ii_numerator(data.omega)
        for i in range(data.weight + 2):
            assert rhs.coefficient(i, 0) == data.A.coefficient(i, 0)

    def test_dropped_term_detected(self, data):
        # without the w'(0)xy term the (2,1) slot goes wrong
        xwy, ywx = invariant_pair(data.omega)
        bad_first = add2(xwy, ywx).mul(add2(xwy, ywx, -1))
        assert bad_first.coefficient(2, 1) != data.A.coefficient(2, 1)


class TestKricheverForm:
    def test_passes(self, data):
        rep = fgl.verify_krichever_form(data)
        assert rep.passed, rep.first_failure

    def test_residual_is_exactly_high_A(self, data):
        residual = add2(data.A, _numerator(data), -1)
        assert residual.coeffs  # nontrivial from weight 5 on
        for (i, j), c in residual.coeffs.items():
            assert i >= 3 and j >= 3
            assert c == data.A.coefficient(i, j)

    def test_perturbed_invariant_forms_fail(self):
        # x b(y) - y b(x) and b beta(x) - b beta(y) vanish on y = x, and the
        # numerator is antisymmetric, for any b and beta; only the residual
        # against A can see this fault
        data = fgl.compute_A(fgl.build_universal_fgl(6))
        bv = data.vars
        bump = Poly.var(bv, "b1").scale(3) + Poly.var(bv, "b2").scale(7)
        omega = Series1(bv, data.weight, [c + bump for c in data.omega.coeffs])
        rep = fgl.verify_krichever_form(data._replace(omega=omega))
        assert rep.to_json() == {
            "suite": "krichever-form",
            "order": 6,
            "pass": False,
            "first_failure": {
                "monomial": "x^0*y^2",
                "lhs": "49*b2^2 + 42*b1*b2 + 9*b1^2 + 14*b2 + 6*b1",
                "rhs": "0 (support must have i,j >= 3)",
            },
        }

    def test_replace_keeps_A(self):
        data = fgl.compute_A(fgl.build_universal_fgl(4))
        copy = data._replace(A=data.A)
        assert copy.A is data.A

    def test_additive_residual_vanishes(self, data):
        residual = add2(data.A, _numerator(data), -1)
        for c in residual.coeffs.values():
            assert not specialize_b_zero(c)


def _numerator(data):
    """The row-2 map of the closed form as a series at the order of A."""
    return Series2(data.vars, data.A.order, fgl._proposition_ii_rhs(data.omega))


OMEGA_RINGS = {
    "Z[b1..b5]": (b_vars(5), st.integers(-5, 5)),
    "Q[CP1..CP4]": (cp_vars(4), st.fractions(min_value=-4, max_value=4, max_denominator=6)),
}


def omegas(vars, scalars):
    """Series of order 2..8 with small polynomial coefficients, omega_0 free:
    the coefficient of x^k has monomials of weight at most k + 1, so the
    products stay within the top weight of the key layout."""
    cube = list(product(range(3), repeat=len(vars.names)))

    def polys(k):
        monomials = st.sampled_from([m for m in cube if vars.monomial_weight(m) <= k + 1])
        return st.dictionaries(monomials, scalars, max_size=3).map(lambda t: Poly(vars, t))

    return st.integers(2, 8).flatmap(
        lambda n: st.tuples(*[polys(k) for k in range(n + 1)]).map(
            lambda cs: Series1(vars, n, cs)
        )
    )


@pytest.mark.parametrize("ring", OMEGA_RINGS)
def test_row_two_map_is_the_bivariate_numerator(ring):
    vars, scalars = OMEGA_RINGS[ring]

    @given(omegas(vars, scalars))
    @settings(max_examples=40, deadline=None)
    def check(omega):
        rhs = Series2(vars, omega.order + 2, fgl._proposition_ii_rhs(omega))
        numerator = proposition_ii_numerator(omega)
        assert (rhs.order, rhs.coeffs) == (numerator.order, numerator.coeffs)

    check()


def test_work_of_the_closed_form(monkeypatch):
    # Each suite builds the closed form from the one square omega^2: 10,346
    # term products for the two at W = 13, against 28,522 when the closed
    # form was a sum of bivariate products.
    data = fgl.compute_A(fgl.build_universal_fgl(13))
    suites = (fgl.verify_proposition_ii, fgl.verify_krichever_form)
    reports = []
    products = products_formed(monkeypatch, lambda: reports.extend(v(data) for v in suites))
    assert all(rep.passed for rep in reports)
    assert 0 < products <= 12_000


def test_work_of_the_associativity_suite(monkeypatch):
    # only the left side of omega(x) dF/dx = omega(y) dF/dy is formed and
    # compared with its mirror: 195,965 term products at W = 18, against
    # 391,930 when the right side was formed too
    data = fgl.build_universal_fgl(18)
    reports = []
    products = products_formed(monkeypatch, lambda: reports.append(fgl.verify_associativity(data)))
    assert reports[0].passed and reports[0].order == 18
    assert 0 < products <= 196_000


def _bump(coeffs, slots, var):
    """A copy of a {slot: Poly} map with ``var`` added at each slot."""
    out = dict(coeffs)
    for k in slots:
        out[k] = out.get(k, Poly.zero(var.vars)) + var
    return out


def _odd_omega_prime(data):
    # omega'_2 = 3 * omega_3, so adding b3 to omega_3 makes it odd
    bv = data.vars
    coeffs = _bump(dict(enumerate(data.omega.coeffs)), [3], Poly.var(bv, "b3"))
    omega = Series1(bv, data.omega.order, [coeffs[k] for k in sorted(coeffs)])
    return fgl.verify_proposition_i(data._replace(omega=omega))


def _bad_A(data):
    A = data.A
    coeffs = _bump(A.coeffs, [(2, 3)], Poly.var(A.vars, "b3"))
    return data._replace(A=Series2(A.vars, A.order, coeffs))


def _bad_F_pair(data):
    F = data.F
    coeffs = _bump(F.coeffs, [(1, 2), (2, 1)], Poly.var(F.vars, "b2"))
    return fgl.verify_associativity(data._replace(F=Series2(F.vars, F.order, coeffs)))


# The full report of each suite under one injected fault, pinned field by field.
FAILURE_PINS = {
    "proposition-i": (
        _odd_omega_prime,
        {
            "suite": "proposition-i",
            "order": 5,
            "pass": False,
            "first_failure": {"monomial": "x^2", "lhs": "12*b1^3 - 24*b1*b2 + 15*b3", "rhs": "even coefficients"},
        },
    ),
    "proposition-ii": (
        lambda data: fgl.verify_proposition_ii(_bad_A(data)),
        {
            "suite": "proposition-ii",
            "order": 5,
            "pass": False,
            "first_failure": {"monomial": "x^2*y^3", "lhs": "2*b1^3 - 4*b1*b2 + 3*b3", "rhs": "2*b1^3 - 4*b1*b2 + 2*b3"},
        },
    ),
    "krichever-form": (
        lambda data: fgl.verify_krichever_form(_bad_A(data)),
        {
            "suite": "krichever-form",
            "order": 5,
            "pass": False,
            "first_failure": {"monomial": "x^2*y^3", "lhs": "b3", "rhs": "0 (support must have i,j >= 3)"},
        },
    ),
    "associativity": (
        _bad_F_pair,
        {
            "suite": "associativity",
            "order": 5,
            "pass": False,
            "first_failure": {"monomial": "x^1*y^2", "lhs": "-4*b1*b2 + 12*b3", "rhs": "12*b3"},
        },
    ),
}


@pytest.mark.parametrize("w", [6, 7])
def test_associativity_agrees_with_the_literal_check(w):
    """The invariant-differential check and the trivariate substitution give
    the same verdict on seeded single and paired bumps of F's slots, both at
    the law's own degree w.  A bump adds a multiple of a random monomial of
    the slot's weight (a constant on the slots of weight 0 and -1), so the
    bumped law stays graded and the powers of F that the substitution forms
    stay within the top weight of the key layout.

    The one allowed difference is a bump of F(x, 0) = x: only the
    invariant-differential check reads that axiom on its own, so it must fail
    every such bump, whatever the literal check says.
    """
    data = fgl.build_universal_fgl(w)
    F = data.F
    slots = [(i, k - i) for k in range(F.order + 1) for i in range(k + 1)]
    rng = random.Random(w)
    bumps = [[slot] for slot in slots] + [rng.sample(slots, 2) for _ in range(40)]
    verdicts = set()
    for bumped in bumps:
        coeffs = dict(F.coeffs)
        for slot in bumped:
            monomial = rng.choice(weighted_monomials(F.vars, max(sum(slot) - 1, 0)))
            var = Poly(F.vars, {monomial: rng.choice([-2, -1, 1, 3])})
            coeffs = _bump(coeffs, [slot], var)
        bad = data._replace(F=Series2(F.vars, F.order, coeffs))
        new = fgl.verify_associativity(bad).passed
        if any(j == 0 and i <= w for i, j in bumped):
            assert not new, bumped
        else:
            assert new == literal_associativity(bad, w).passed, bumped
        verdicts.add(new)
    # bumps at degree w + 1, past the checked degree, pass both checks
    assert verdicts == {True, False}


@pytest.mark.parametrize("slots", [[(3, 4), (4, 3)], [(4, 4)], [(1, 7), (7, 1)]])
def test_associativity_reaches_the_law_degree(slots):
    # symmetric bumps at degrees 7 and 8 of a W = 8 law; a check capped at
    # degree 6 passed each of them
    data = fgl.build_universal_fgl(8)
    F = data.F
    i, j = slots[0]
    coeffs = _bump(F.coeffs, slots, Poly.var(F.vars, f"b{i + j - 1}"))
    rep = fgl.verify_associativity(data._replace(F=Series2(F.vars, F.order, coeffs)))
    assert rep.order == 8
    assert not rep.passed


def test_unit_axiom_is_read_at_the_law_degree():
    # F + c (x + y)^W still solves omega(x) dF/dx = omega(y) dF/dy to degree
    # W - 1, and it is not associative; only F(x, 0) = x at degree W sees it
    w = 8
    data = fgl.build_universal_fgl(w)
    F = data.F
    coeffs = dict(F.coeffs)
    for i in range(w + 1):
        coeffs = _bump(coeffs, [(i, w - i)], Poly.var(F.vars, f"b{w - 1}", coeff=comb(w, i)))
    bad = data._replace(F=Series2(F.vars, F.order, coeffs))
    rep = fgl.verify_associativity(bad)
    assert rep.first_failure["monomial"] == f"x^{w}"
    assert not literal_associativity(bad, w).passed


@pytest.mark.parametrize("suite", FAILURE_PINS)
def test_failure_report_is_pinned(suite):
    fault, expected = FAILURE_PINS[suite]
    data = fgl.compute_A(fgl.build_universal_fgl(5))
    assert fault(data).to_json() == expected
