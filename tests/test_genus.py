import json
from fractions import Fraction

import pytest

from krichever import genus
from krichever.core import (
    Poly,
    Series1,
    cp_vars,
    gauss_jordan,
    p_vars,
    q_vars,
    weighted_monomials,
)

# values printed in the source tables, entered verbatim
PSI_VALUES = {
    1: "-1/2*p1",
    2: "3/8*p1^2 - 1/2*p2",
    3: "-5/16*p1^3 + 3/4*p1*p2 - 1/2*p3",
    4: "35/128*p1^4 - 15/16*p1^2*p2 + 3/8*p2^2 + 3/4*p1*p3 - 1/2*p4",
}
KAPPA_VALUES = {
    1: "-CP1",
    2: "3*CP1^2 - 2*CP2",
    3: "-10*CP1^3 + 12*CP1*CP2 - 3*CP3",
    4: "35*CP1^4 - 60*CP1^2*CP2 + 20*CP1*CP3 + 10*CP2^2 - 4*CP4",
}


class TestPsi:
    def test_printed_values(self):
        table = genus.psi_table(4)
        pv = table.vars
        for i, text in PSI_VALUES.items():
            assert table[i] == Poly.parse(text, pv), f"psi(CP_{i})"

    def test_homogeneity(self):
        table = genus.psi_table(8)
        for i in range(1, 9):
            assert table[i].is_homogeneous(i)

    def test_defined_by_inverse_square_root(self):
        # entries satisfy (sum psi_i x^i + 1)^2 * quartic = 1
        pv = p_vars()
        table = genus.psi_table(6)
        s = Series1(
            pv, 6, [Poly.one(pv)] + [table[i] for i in range(1, 7)]
        )
        assert s.mul(s).mul(genus.quartic_series(pv, 6)) == Series1.one(pv, 6)


class TestKappa:
    def test_printed_values(self):
        table = genus.kappa_table(4)
        cv = table.vars
        for i, text in KAPPA_VALUES.items():
            assert table[i] == Poly.parse(text, cv), f"kappa(CP_{i})"

    def test_linear_term_from_composition(self):
        # mog = log o nu^{-1} has kappa(CP_1)/2 at x^2
        cv = cp_vars(3)
        mog = genus.mog_series(cv, 4)
        assert mog.coeffs[2].scale(2) == -Poly.var(cv, "CP1")

    def test_ring_map_multiplicative(self):
        table = genus.kappa_table(4)
        cv = table.vars
        prod = Poly.var(cv, "CP1") * Poly.var(cv, "CP2")
        assert prod.substitute(table.images(), cv) == table[1] * table[2]

    def test_homogeneity(self):
        table = genus.kappa_table(6)
        for i in range(1, 7):
            assert table[i].is_homogeneous(i)


def gauss_jordan_kappa_inverse(n):
    """Reference oracle: kappa^{-1}(CP_w) from the dense weight-w system.

    kappa on every weight-w monomial gives the columns, and Gauss-Jordan on
    [kappa | e_{CP_w}] leaves the preimage in the last column.
    """
    kappa = genus.kappa_table(n)
    cv = kappa.vars
    images = kappa.images()
    entries = {}
    for w in range(1, n + 1):
        basis = weighted_monomials(cv, w)
        size = len(basis)
        pos = {e: k for k, e in enumerate(basis)}
        cols = []
        for e in basis:
            col = [0] * size
            for ee, c in Poly(cv, {e: 1}).substitute(images, cv).terms.items():
                col[pos[ee]] = c
            cols.append(col)
        t = pos[next(iter(Poly.var(cv, f"CP{w}").terms))]
        reduced, pivots = gauss_jordan(
            [[col[i] for col in cols] + [int(i == t)] for i in range(size)]
        )
        assert pivots == list(range(size))
        entries[w] = Poly(cv, {e: row[size] for e, row in zip(basis, reduced)})
    return entries


class TestKappaInverse:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_gauss_jordan_solve(self, n):
        kinv = genus.kappa_inverse_table(n)
        expected = gauss_jordan_kappa_inverse(n)
        for w in range(1, n + 1):
            assert kinv[w] == expected[w], f"kappa_inv(CP_{w})"
            assert kinv[w].text() == expected[w].text()

    def test_leading_coefficient_is_minus_weight(self):
        table = genus.kappa_table(8)
        for w in range(1, 9):
            assert table[w].coefficient([int(i == w) for i in range(1, 9)]) == -w

    def test_missing_linear_term_is_refused(self, monkeypatch):
        real = genus.kappa_table

        def no_cp2_term(n):
            table = real(n)
            cv = table.vars
            entries = dict(table.entries)
            entries[2] = table[2] + Poly.var(cv, "CP2", coeff=2)
            assert entries[2] == Poly.parse("3*CP1^2", cv)
            return genus.GenusTable("kappa", n, cv, entries)

        monkeypatch.setattr(genus, "kappa_table", no_cp2_term)
        with pytest.raises(ValueError, match="CP_2"):
            genus.kappa_inverse_table(3)

    def test_low_entries(self):
        table = genus.kappa_inverse_table(4)
        cv = table.vars
        assert table[1] == Poly.parse("-CP1", cv)
        assert table[2] == Poly.parse("3/2*CP1^2 - 1/2*CP2", cv)

    def test_round_trip_on_generators(self):
        n = 6
        kinv = genus.kappa_inverse_table(n)
        kappa = genus.kappa_table(n).images()
        cv = kinv.vars
        for i in range(1, n + 1):
            assert kinv[i].substitute(kappa, cv) == Poly.var(cv, f"CP{i}")

    def test_round_trip_on_monomials(self):
        # kappa^{-1} o kappa is the identity on every monomial up to weight 5
        n = 5
        kinv = genus.kappa_inverse_table(n)
        cv = kinv.vars
        kappa = genus.kappa_table(n).images()
        for w in range(1, n + 1):
            for e in weighted_monomials(cv, w):
                m = Poly(cv, {e: Fraction(1)})
                assert m.substitute(kappa, cv).substitute(kinv.images(), cv) == m


class TestPhiKh:
    def test_first_entry(self):
        table = genus.phi_kh_table(3)
        assert table[1] == Poly.var(q_vars(), "q1").scale(Fraction(1, 2))

    def test_homogeneity(self):
        table = genus.phi_kh_table(8)
        for i in range(1, 9):
            assert table[i].is_homogeneous(i)

    def test_additive_specialization_vanishes(self):
        # with q1=..=q4=0 the law is additive and the genus kills every CP_i
        qv = q_vars()
        zero = {f"q{i}": Poly.zero(qv) for i in range(1, 5)}
        table = genus.phi_kh_table(6)
        for i in range(1, 7):
            assert table[i].substitute(zero, qv).is_zero

    def test_json_keys(self):
        payload = genus.phi_kh_table(3).to_json()
        assert set(payload) == {"CP_1", "CP_2", "CP_3"}
        json.dumps(payload)


class TestOde:
    def test_small_order(self):
        rep = genus.verify_krichever_ode(2)
        assert rep.passed

    def test_order_two_exponential_coefficient(self):
        # hand computation: the exponential of the order-2 solution starts
        # x - q1/4 x^2
        table = genus.phi_kh_table(2)
        qv = table.vars
        f = genus._log_from_table(table, 3).revert()
        assert f.coeffs[2] == Poly.var(qv, "q1").scale(Fraction(-1, 4))

    def test_order_ten(self):
        rep = genus.verify_krichever_ode(10)
        assert rep.passed, rep.first_failure

    def test_perturbation_detected(self):
        table = genus.phi_kh_table(4)
        qv = table.vars
        entries = dict(table.entries)
        entries[1] = entries[1] + Poly.var(qv, "q1")  # keep homogeneity
        bad = genus.GenusTable("phi_kh", 4, qv, entries)
        rep = genus.verify_krichever_ode(4, table=bad)
        assert not rep.passed
        assert rep.first_failure["monomial"] == "x^1"


class TestLemma1:
    @pytest.mark.parametrize("n", [2, 8])
    def test_passes(self, n):
        rep = genus.verify_lemma1(n)
        assert rep.passed, rep.first_failure

    def test_wrong_isomorphism_detected(self):
        cv = cp_vars(4)
        rep = genus.verify_lemma1(4, nu=Series1.identity(cv, 5))
        assert not rep.passed


class TestLemma2Theorem1:
    def test_passes_order_six(self):
        rep = genus.verify_lemma2_theorem1(6)
        assert rep.passed, rep.first_failure

    def test_quartic_truncation_is_sharp(self):
        # the pushed-forward square has literally zero x^5, x^6 coefficients
        n = 6
        cv = cp_vars(n)
        qv = q_vars()
        phi = genus.phi_kh_table(n)
        omega_t = genus.mog_series(cv, n + 1).derivative().reciprocal()
        images = phi.images()
        sq = Series1(qv, omega_t.order, [c.substitute(images, qv) for c in omega_t.coeffs])
        sq = sq.mul(sq)
        assert sq.coeffs[5].is_zero and sq.coeffs[6].is_zero
        assert sq.coeffs[1] == Poly.var(qv, "q1")
        assert sq.coeffs[4] == Poly.var(qv, "q4")


def _perturbed(table, i, name):
    """The table with the variable ``name`` added to entry i (weights kept)."""
    entries = dict(table.entries)
    entries[i] = entries[i] + Poly.var(table.vars, name)
    return genus.GenusTable(table.name, table.max_index, table.vars, entries)


def _bad_phi(monkeypatch):
    real = genus.phi_kh_table
    monkeypatch.setattr(genus, "phi_kh_table", lambda n: _perturbed(real(n), 1, "q1"))


def _bad_t_psi(monkeypatch):
    # part (a) of lemma 2 determines phi_1..phi_n, so any change to phi fails
    # there first; the strict isomorphism of part (b) is reached through t o psi
    real = genus.t_psi_table
    monkeypatch.setattr(genus, "t_psi_table", lambda n: _perturbed(real(n), 2, "q2"))


def _ode_fault(monkeypatch):
    _bad_phi(monkeypatch)
    return genus.verify_krichever_ode(4)


def _lemma1_fault(monkeypatch):
    return genus.verify_lemma1(4, nu=Series1.identity(cp_vars(4), 5))


def _quartic_fault(monkeypatch):
    _bad_phi(monkeypatch)
    return genus.verify_lemma2_theorem1(4)


def _strict_iso_fault(monkeypatch):
    _bad_t_psi(monkeypatch)
    return genus.verify_lemma2_theorem1(4)


# The full report of each suite under one injected fault, pinned field by field.
FAILURE_PINS = {
    "krichever-ode": (
        _ode_fault,
        {
            "suite": "krichever-ode",
            "order": 4,
            "pass": False,
            "first_failure": {"monomial": "x^1", "lhs": "3*q1", "rhs": "q1"},
        },
    ),
    "lemma1": (
        _lemma1_fault,
        {
            "suite": "lemma1",
            "order": 4,
            "pass": False,
            "first_failure": {"monomial": "x^2", "lhs": "-1/2*CP1", "rhs": "1/2*CP1"},
        },
    ),
    "lemma2-quartic": (
        _quartic_fault,
        {
            "suite": "lemma2-quartic",
            "order": 4,
            "pass": False,
            "first_failure": {"monomial": "x^1", "lhs": "3*q1", "rhs": "q1"},
        },
    ),
    "theorem1-strict-iso": (
        _strict_iso_fault,
        {
            "suite": "theorem1-strict-iso",
            "order": 4,
            "pass": False,
            "first_failure": {"monomial": "x^1*y^2", "lhs": "1/8*q1^2 + 1/2*q2", "rhs": "1/8*q1^2 - 1/2*q2"},
        },
    ),
}


@pytest.mark.parametrize("suite", FAILURE_PINS)
def test_failure_report_is_pinned(suite, monkeypatch):
    fault, expected = FAILURE_PINS[suite]
    assert fault(monkeypatch).to_json() == expected
