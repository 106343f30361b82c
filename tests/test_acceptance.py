"""Acceptance battery.

One test per criterion; all equalities are exact (tolerance zero).  Each
test prints its own PASS line so the -s output reads as a checklist.
"""

import time

import pytest

from krichever import fgl, genus, lattice
from oracles import indecomposables_closed_form, omega_hat, parse_poly, swap


def _done(name, t0=None):
    suffix = f" ({time.perf_counter() - t0:.2f}s)" if t0 is not None else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


@pytest.fixture(scope="module")
def fgl10():
    return fgl.compute_A(fgl.build_universal_fgl(10))


def test_criterion_1_psi_table():
    t0 = time.perf_counter()
    table = genus.psi_table(4)
    pv = table.series.vars
    expected = {
        1: "-1/2*p1",
        2: "3/8*p1^2 - 1/2*p2",
        3: "-5/16*p1^3 + 3/4*p1*p2 - 1/2*p3",
        4: "35/128*p1^4 - 15/16*p1^2*p2 + 3/8*p2^2 + 3/4*p1*p3 - 1/2*p4",
    }
    for i, text in expected.items():
        assert table[i] == parse_poly(text, pv)
    assert time.perf_counter() - t0 < 1.0
    _done("1. psi table reproduces all four printed values", t0)


def test_criterion_2_kappa_table():
    t0 = time.perf_counter()
    table = genus.kappa_table(4)
    cv = table.series.vars
    expected = {
        1: "-CP1",
        2: "3*CP1^2 - 2*CP2",
        3: "-10*CP1^3 + 12*CP1*CP2 - 3*CP3",
        4: "35*CP1^4 - 60*CP1^2*CP2 + 20*CP1*CP3 + 10*CP2^2 - 4*CP4",
    }
    for i, text in expected.items():
        assert table[i] == parse_poly(text, cv)
    assert time.perf_counter() - t0 < 1.0
    _done("2. kappa table reproduces all four printed values", t0)


def test_criterion_3_ode_oracle_order_ten():
    t0 = time.perf_counter()
    rep = genus.verify_krichever_ode(10)
    assert rep.passed, rep.first_failure
    assert time.perf_counter() - t0 < 10.0
    _done("3. composite genus satisfies the defining ODE through order 9", t0)


def test_criterion_4_quartic_square_order_ten():
    rep = genus.verify_lemma2_theorem1(10)
    assert rep.passed, rep.first_failure
    _done("4. pushed-forward invariant form squares to the monic quartic (N=10)")


def test_criterion_5_lemma1_and_strict_iso():
    rep1 = genus.verify_lemma1(8)
    assert rep1.passed, rep1.first_failure
    rep2 = genus.verify_lemma2_theorem1(8)
    assert rep2.passed, rep2.first_failure
    _done("5. revert(exp/exp') = log o nu^{-1} (order 8); strict iso to degree 6")


def test_criterion_6_omega_prime_even(fgl10):
    rep = fgl.verify_proposition_i(fgl10)
    assert rep.passed, rep.first_failure
    assert all(c.is_integral() for c in omega_hat(fgl10.omega).coeffs)
    _done("6. omega' - omega'(0) has even coefficients at weight <= 10")


def test_criterion_7_A_expansion_and_residual(fgl10):
    rep1 = fgl.verify_proposition_ii(fgl10)
    assert rep1.passed, rep1.first_failure
    rep2 = fgl.verify_krichever_form(fgl10)
    assert rep2.passed, rep2.first_failure
    _done("7. A_ij expansion on min(i,j) <= 2 and residual supported on i,j >= 3")


@pytest.fixture(scope="module")
def quotients13():
    """{n: Quotient record} for n = 1..13, and the seconds it took."""
    t0 = time.perf_counter()
    model = lattice.LazardModel(13)
    groups = {n: model.quotient_report(n) for n in range(1, 14)}
    return groups, time.perf_counter() - t0


def test_criterion_8_quotient_weight_thirteen(quotients13):
    groups, elapsed = quotients13
    expected = [((), 1)] * 4 + [
        ((5,), 0),
        ((2,), 0),
        ((7,), 0),
        ((2,), 0),
        ((3,), 0),
        ((), 0),
        ((11,), 0),
        ((), 0),
        ((13,), 0),
    ]
    computed = {n: r.Indec for n, r in groups.items()}
    for n, group in enumerate(expected, start=1):
        assert (computed[n].torsion, computed[n].free_rank) == group, (n, computed[n])
        assert computed[n] == indecomposables_closed_form(n), n
    assert elapsed < 600.0
    lines = ", ".join(f"Indec_{n}={g.describe()}" for n, g in computed.items())
    print(f"    computed: {lines}")
    _done(f"8. quotient structure at weight <= 13 matches the relation list ({elapsed:.2f}s)")


def test_criterion_8_quotient_rings(quotients13):
    # Q_n = L_n / I_n has the free rank of Z[q1..q4] in weight n, and its
    # torsion is (Z/2)^k with k = 1, 1, 2, 3 at n = 6, 8, 10, 12.
    groups, _ = quotients13
    ranks = [len(lattice.partitions(n, 4)) for n in range(1, 14)]
    assert ranks == [1, 2, 3, 5, 6, 9, 11, 15, 18, 23, 27, 34, 39]
    two_torsion = {6: 1, 8: 1, 10: 2, 12: 3}
    for n, r in groups.items():
        assert r.Q.free_rank == ranks[n - 1], (n, r.Q)
        assert r.Q.torsion == (2,) * two_torsion.get(n, 0), (n, r.Q)
    _done("8. Q_n = Z^p(n; parts <= 4) + (Z/2)^k for n <= 13")


def test_criterion_9_property_suites(fgl10):
    # grading
    for i, v in enumerate(genus.phi_kh_table(8).series.coeffs):
        assert v.is_homogeneous(i)
    assert fgl10.F.is_graded(-1) and fgl10.A.is_graded(-2)
    # antisymmetry
    assert swap(fgl10.A).coeffs == {k: -c for k, c in fgl10.A.coeffs.items()}
    # associativity to the law's own degree
    assert fgl.verify_associativity(fgl10).passed
    # round-trip identities live in tests/test_core.py (hypothesis suites);
    # spot-check one here so this criterion stands alone
    from fractions import Fraction

    from krichever.core import Series1, VarTable

    sc = VarTable([], [])
    f = Series1.from_scalars(sc, 6, [0, 1, Fraction(2, 3), -1, 5, 0, Fraction(-7, 2)])
    assert f.compose(f.revert()) == Series1.identity(sc, 6)
    assert f.revert().revert() == f
    g = Series1.from_scalars(sc, 6, [1, -2, 3, Fraction(1, 4), 0, 1, 1])
    assert g.mul(g.reciprocal()) == Series1.one(sc, 6)
    _done("9. property suites: grading, antisymmetry, associativity, round trips")
