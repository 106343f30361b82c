from dataclasses import replace
from fractions import Fraction

import pytest

from krichever import fgl
from krichever.core import Poly, Series1, Series2, b_vars


@pytest.fixture(scope="module")
def data():
    return fgl.compute_A(fgl.build_universal_fgl(8))


def specialize_b_zero(poly):
    const = poly.constant_term()
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

    def test_log_is_integral_with_cp_images(self, data):
        # log_b coefficients are integer polynomials; (i+1) * coefficient is
        # the image of the bordism generator
        assert data.log_b.is_integral()
        assert data.log_b.is_graded(-1)

    def test_F_symmetric_unital_integral_graded(self, data):
        assert data.F.is_symmetric()
        assert data.F.at_y_zero() == Series1.identity(data.vars, data.weight + 1)
        assert data.F.is_integral()
        assert data.F.is_graded(-1)

    def test_associativity_degree_six(self, data):
        rep = fgl.verify_associativity(data, 6)
        assert rep.passed, rep.first_failure


def test_b_model_coefficients_are_int():
    small = fgl.compute_A(fgl.build_universal_fgl(6))
    polys = [*small.F.coeffs.values(), *small.A.coeffs.values()]
    assert polys
    for poly in polys:
        assert all(type(c) is int for c in poly.terms.values())


class TestA:
    def test_diagonal_vanishes(self, data):
        for i in range(5):
            assert data.A.coefficient(i, i).is_zero

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
                assert specialize_b_zero(c).is_zero

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


class TestPropositionI:
    @pytest.mark.parametrize("w", [3, 10])
    def test_passes(self, w):
        rep = fgl.verify_proposition_i(fgl.build_universal_fgl(w))
        assert rep.passed, rep.first_failure

    def test_omega_hat_integral_and_additive_case(self, data):
        hat = fgl.omega_hat(data)
        assert hat.is_integral()
        for c in hat.coeffs:
            assert specialize_b_zero(c).is_zero


class TestPropositionII:
    def test_passes(self, data):
        rep = fgl.verify_proposition_ii(data)
        assert rep.passed, rep.first_failure

    def test_omega_only_slots(self, data):
        # j = 0 column comes from the omega products alone and includes the
        # additive A_20 = 1
        rhs = fgl._proposition_ii_rhs(data)
        for i in range(data.weight + 2):
            assert rhs.coefficient(i, 0) == data.A.coefficient(i, 0)

    def test_dropped_term_detected(self, data):
        # without the w'(0)xy term the (2,1) slot goes wrong
        w, bv = data.weight, data.vars
        xwy, ywx, x, y = fgl._xwy_ywx(data)
        bad_first = (xwy + ywx).mul(xwy - ywx, order=w + 2)
        assert bad_first.coefficient(2, 1) != data.A.coefficient(2, 1)


class TestKricheverForm:
    def test_passes(self, data):
        rep = fgl.verify_krichever_form(data)
        assert rep.passed, rep.first_failure

    def test_residual_is_exactly_high_A(self, data):
        numerator = fgl._proposition_ii_rhs(data)
        residual = data.A - numerator
        assert residual.coeffs  # nontrivial from weight 5 on
        for (i, j), c in residual.coeffs.items():
            assert i >= 3 and j >= 3
            assert c == data.A.coefficient(i, j)

    def test_additive_residual_vanishes(self, data):
        numerator = fgl._proposition_ii_rhs(data)
        residual = data.A - numerator
        for c in residual.coeffs.values():
            assert specialize_b_zero(c).is_zero


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
    return fgl.verify_proposition_i(replace(data, omega=omega, omega_hat=None))


def _bad_A(data):
    A = data.A
    coeffs = _bump(A.coeffs, [(2, 3)], Poly.var(A.vars, "b3"))
    return replace(data, A=Series2(A.vars, A.order, coeffs))


def _bad_F_pair(data):
    F = data.F
    coeffs = _bump(F.coeffs, [(1, 2), (2, 1)], Poly.var(F.vars, "b2"))
    return fgl.verify_associativity(replace(data, F=Series2(F.vars, F.order, coeffs)))


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
            "first_failure": {"monomial": "x^1*y^1*z^2", "lhs": "-4*b1*b2 + 12*b3", "rhs": "12*b3"},
        },
    ),
}


@pytest.mark.parametrize("suite", FAILURE_PINS)
def test_failure_report_is_pinned(suite):
    fault, expected = FAILURE_PINS[suite]
    data = fgl.compute_A(fgl.build_universal_fgl(5))
    assert fault(data).to_json() == expected
