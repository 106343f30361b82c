import json
from fractions import Fraction

import pytest

from krichever import genus
from krichever.core import (
    Poly,
    Series1,
    cp_vars,
    formal_group_law,
    p_vars,
    q_vars,
)
from oracles import (
    back_substitution_kappa_inverse,
    gauss_jordan,
    parse_poly,
    products_formed,
    substituted_phi_kh,
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
            assert table[i] == parse_poly(text, pv), f"psi(CP_{i})"

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
            assert table[i] == parse_poly(text, cv), f"kappa(CP_{i})"

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
            for ee, c in Poly(cv, {e: 1}).substitute(images, cv).sorted_terms():
                col[pos[ee]] = c
            cols.append(col)
        t = pos[tuple(int(i == w) for i in range(1, n + 1))]
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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_back_substitution(self, n):
        assert genus.kappa_inverse_table(n).entries == back_substitution_kappa_inverse(n).entries

    def test_leading_coefficient_is_minus_weight(self):
        table = genus.kappa_table(8)
        for w in range(1, 9):
            assert table[w].coefficient([int(i == w) for i in range(1, 9)]) == -w

    def test_missing_linear_term_is_refused(self, monkeypatch):
        # the reversion divides by no c_w; the back-substitution oracle does
        real = genus.kappa_table

        def no_cp2_term(n):
            table = real(n)
            cv = table.vars
            entries = dict(table.entries)
            entries[2] = table[2] + Poly.var(cv, "CP2", coeff=2)
            assert entries[2] == parse_poly("3*CP1^2", cv)
            return genus.GenusTable("kappa", n, cv, entries)

        monkeypatch.setattr(genus, "kappa_table", no_cp2_term)
        with pytest.raises(ValueError, match="CP_2"):
            back_substitution_kappa_inverse(3)

    def test_low_entries(self):
        table = genus.kappa_inverse_table(4)
        cv = table.vars
        assert table[1] == parse_poly("-CP1", cv)
        assert table[2] == parse_poly("3/2*CP1^2 - 1/2*CP2", cv)

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


@pytest.mark.parametrize(
    "build", [genus.kappa_inverse_table, genus.phi_kh_table], ids=["kappa-inv", "phi-kh"]
)
def test_gate_catches_a_wrong_reversion(build, monkeypatch):
    # the x^4 coefficient doubled keeps every entry homogeneous, so only the
    # rho(L) = rho(log) o N check can see it
    revert = Series1.revert

    def perturbed(self):
        g = revert(self)
        g.coeffs[4] = g.coeffs[4].scale(2)
        return g

    monkeypatch.setattr(Series1, "revert", perturbed)
    with pytest.raises(AssertionError, match=r"kappa o kappa\^-1 failed at weight 3"):
        build(6)


class TestPhiKh:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_substituted_composite(self, n):
        assert genus.phi_kh_table(n).entries == substituted_phi_kh(n).entries

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

    def test_work_of_the_table(self, monkeypatch):
        # Every sum of products is one Poly.dot: the table makes no plain sum
        # at order 10, where the back-substitution made 30 and adding one
        # product at a time took 662.
        add = Poly.__add__
        calls = [0]

        def counted_add(self, other):
            calls[0] += 1
            return add(self, other)

        monkeypatch.setattr(Poly, "__add__", counted_add)
        qv = q_vars()
        Poly.var(qv, "q1") + Poly.var(qv, "q2")  # control: the patch counts
        assert calls[0] == 1
        genus.phi_kh_table(10)
        assert calls[0] - 1 <= 60


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


def test_work_of_the_phi_kh_table(monkeypatch):
    # 13,944 term products; 31,411 when psi was substituted into kappa^{-1}
    # from the back-substitution, and 38,983 when each image power was built
    # by binary powering and p_i -> q_i was a substitution
    assert 0 < products_formed(monkeypatch, lambda: genus.phi_kh_table(12)) <= 15_500


def test_work_of_the_kappa_inverse_table(monkeypatch):
    # 197,537 term products at the order ceiling; the back-substitution with
    # a kappa o kappa^{-1} substitution per weight formed 569,365
    work = products_formed(monkeypatch, lambda: genus.kappa_inverse_table(18))
    assert 0 < work <= 220_000


def test_work_of_lemma2_theorem1(monkeypatch):
    # 40,305 term products; 46,504 with the back-substituted phi_KH table and
    # 69,583 when the kappa table was built twice per run
    work = products_formed(monkeypatch, lambda: genus.verify_lemma2_theorem1(12))
    assert 0 < work <= 44_000


def test_work_of_the_inverse_square_root(monkeypatch):
    # 9,036 term products when the root came from the reciprocal by a
    # square-root recurrence; the power recurrence needs 1,326
    quartic = genus.quartic_series(p_vars(), 18)
    assert 0 < products_formed(monkeypatch, quartic.inv_sqrt) <= 1_500


def test_work_of_the_ode_quartic(monkeypatch):
    # 1 + q1 u + ... + q4 u^4 at order 18, for the u of the krichever-ode
    # suite: 6,718 term products with the table of powers cut at row 4;
    # 10,460 when all 18 rows were filled and 6,918 by four Series1.mul
    n = 18
    f = genus._log_from_table(genus.phi_kh_table(n), n + 1).revert()
    u = f.truncate(n).mul(f.derivative().reciprocal()).truncate(n - 1)
    quartic = genus.quartic_series(q_vars(), n - 1)
    assert 0 < products_formed(monkeypatch, lambda: quartic.compose(u)) <= 7_000


def test_work_of_mog(monkeypatch):
    # log o nu^{-1} solved against the table of nu, whose coefficients are
    # monomials: 3,061 term products; 11,268 by reverting nu and composing
    # log with the reversion
    work = products_formed(monkeypatch, lambda: genus.mog_series(cp_vars(12), 13))
    assert 0 < work <= 3_500


def test_work_of_the_strict_iso_substitution(monkeypatch):
    # F_tpsi(s(x), s(y)) as verify_lemma2_theorem1 builds it, at degree 12:
    # the split at s(x) forms 14,285 term products; a product of two table
    # entries for every pair of powers formed 52,677
    degree = 12
    qv = q_vars()
    phi = genus.phi_kh_table(degree)
    log = genus._log_from_table(genus.t_psi_table(degree), degree + 1)
    f_tpsi = formal_group_law(log.revert(), log)
    s = Series1(
        qv, degree + 1, [Poly.zero(qv), Poly.one(qv)] + [phi[i] for i in range(1, degree + 1)]
    )
    assert 0 < products_formed(monkeypatch, lambda: f_tpsi.subs_xy(s)) <= 16_000


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
