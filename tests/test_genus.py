import json
import math
from fractions import Fraction

import pytest

from krichever import fgl, genus
from krichever.core import (
    Poly,
    Series1,
    Series2,
    VarTable,
    cp_vars,
    formal_group_law,
    p_vars,
    q_vars,
)
from oracles import (
    back_substitution_kappa_inverse,
    gauss_jordan,
    parse_poly,
    perturbed_table,
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


TABLE_BUILDERS = ["psi_table", "kappa_table", "kappa_inverse_table", "phi_kh_table", "t_psi_table"]


class TestGenusTable:
    @pytest.mark.parametrize("n", [1, 4, 12])
    @pytest.mark.parametrize("build", TABLE_BUILDERS)
    def test_a_table_is_its_log_derivative(self, build, n):
        table = getattr(genus, build)(n)
        assert table.series.order == n
        assert table[0] == Poly.one(table.series.vars)

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_kappa_is_mog_derivative(self, n):
        assert genus.kappa_table(n).series == genus.mog_series(cp_vars(n), n + 1).derivative()

    def test_constant_term_must_be_one(self):
        s = genus.psi_table(3).series
        bad = Series1(s.vars, 3, [s.coeffs[0].scale(2)] + s.coeffs[1:])
        with pytest.raises(ValueError, match=r"psi\(CP_0\) is not 1"):
            genus.GenusTable("psi", bad)

    def test_coefficient_must_have_its_weight(self):
        s = genus.psi_table(3).series
        bad = Series1(s.vars, 3, s.coeffs[:2] + [s.coeffs[3], s.coeffs[2]])
        with pytest.raises(ValueError, match=r"psi\(CP_2\) is not homogeneous of weight 2"):
            genus.GenusTable("psi", bad)


class TestPsi:
    def test_printed_values(self):
        table = genus.psi_table(4)
        pv = table.series.vars
        for i, text in PSI_VALUES.items():
            assert table[i] == parse_poly(text, pv), f"psi(CP_{i})"

    def test_homogeneity(self):
        table = genus.psi_table(8)
        for i in range(1, 9):
            assert table[i].is_homogeneous(i)

    def test_defined_by_inverse_square_root(self):
        # log' = 1 + sum psi_i x^i satisfies log'^2 * quartic = 1
        pv = p_vars()
        s = genus.psi_table(6).series
        assert s.mul(s).mul(genus.quartic_series(pv, 6)) == Series1.one(pv, 6)


class TestKappa:
    def test_printed_values(self):
        table = genus.kappa_table(4)
        cv = table.series.vars
        for i, text in KAPPA_VALUES.items():
            assert table[i] == parse_poly(text, cv), f"kappa(CP_{i})"

    def test_linear_term_from_composition(self):
        # mog = log o nu^{-1} has kappa(CP_1)/2 at x^2
        cv = cp_vars(3)
        mog = genus.mog_series(cv, 4)
        assert mog.coeffs[2].scale(2) == -Poly.var(cv, "CP1")

    def test_ring_map_multiplicative(self):
        table = genus.kappa_table(4)
        cv = table.series.vars
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
    cv = kappa.series.vars
    images = kappa.images()
    entries = {}
    for w in range(1, n + 1):
        basis = weighted_monomials(cv, w)
        size = len(basis)
        pos = {e: k for k, e in enumerate(basis)}
        cols = []
        for e in basis:
            col = [0] * size
            for ee, (num, den) in Poly(cv, {e: 1}).substitute(images, cv).sorted_terms():
                col[pos[ee]] = Fraction(num, den)
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
        assert genus.kappa_inverse_table(n).series == back_substitution_kappa_inverse(n).series

    def test_leading_coefficient_is_minus_weight(self):
        table = genus.kappa_table(8)
        for w in range(1, 9):
            cp_w = tuple(int(i == w) for i in range(1, 9))
            assert dict(table[w].sorted_terms())[cp_w] == (-w, 1)

    def test_missing_linear_term_is_refused(self, monkeypatch):
        # the reversion divides by no c_w; the back-substitution oracle does
        real = genus.kappa_table

        def no_cp2_term(n):
            table = real(n)
            cv = table.series.vars
            bad = perturbed_table(table, 2, Poly.var(cv, "CP2", coeff=2))
            assert bad[2] == parse_poly("3*CP1^2", cv)
            return bad

        monkeypatch.setattr(genus, "kappa_table", no_cp2_term)
        with pytest.raises(ValueError, match="CP_2"):
            back_substitution_kappa_inverse(3)

    def test_low_entries(self):
        table = genus.kappa_inverse_table(4)
        cv = table.series.vars
        assert table[1] == parse_poly("-CP1", cv)
        assert table[2] == parse_poly("3/2*CP1^2 - 1/2*CP2", cv)

    def test_round_trip_on_generators(self):
        n = 6
        kinv = genus.kappa_inverse_table(n)
        kappa = genus.kappa_table(n).images()
        cv = kinv.series.vars
        for i in range(1, n + 1):
            assert kinv[i].substitute(kappa, cv) == Poly.var(cv, f"CP{i}")

    def test_round_trip_on_monomials(self):
        # kappa^{-1} o kappa is the identity on every monomial up to weight 5
        n = 5
        kinv = genus.kappa_inverse_table(n)
        cv = kinv.series.vars
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
        assert genus.phi_kh_table(n).series == substituted_phi_kh(n).series

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
            assert not table[i].substitute(zero, qv)

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


# Two planes of classical genera (Hirzebruch, Berger & Jung, Manifolds and
# Modular Forms, 1992; Ochanine, Topology 26, 1987).  Each side that is
# expected is written from its closed form, with no series code.  Both planes
# set q3 = 0, and neither has both q1 and q4, so they add to the ODE and do
# not replace it.
AB = VarTable(["a", "b"], [1, 1])
# delta and epsilon of the level-2 elliptic genus, of weights 2 and 4
DE = VarTable(["d", "e"], [2, 4])


def chi_y_value(n):
    """sum_i a^(n-i) (-b)^i, the genus with log' = 1/((1 - ax)(1 + bx)) on CP_n."""
    return Poly(AB, {(n - i, i): (-1) ** i for i in range(n + 1)})


def ochanine_value(n):
    """[x^n] (1 - 2d x^2 + e x^4)^(-1/2) by the binomial series: with
    n = 2(k + j), the term of u^k, u = -2d x^2 + e x^4, that takes e^j."""
    if n % 2:
        return Poly.zero(DE)
    terms = {}
    for j in range(n // 4 + 1):
        k = n // 2 - j
        binom = Fraction(math.comb(2 * k, k), (-4) ** k)  # binom(-1/2, k)
        terms[k - j, j] = binom * math.comb(k, j) * (-2) ** (k - j)
    return Poly(DE, terms)


def plane(vars, images):
    """Images of q1..q4 (or p1..p4) given as {index: {exponents: scalar}}."""
    return {i: Poly(vars, images.get(i, {})) for i in range(1, 5)}


CHI_Y_PLANE = plane(AB, {1: {(1, 0): 2, (0, 1): -2}, 2: {(2, 0): 1, (1, 1): 2, (0, 2): 1}})
OCHANINE_Q = plane(DE, {2: {(1, 0): 4}, 4: {(2, 0): 4, (0, 1): -4}})
OCHANINE_P = plane(DE, {2: {(1, 0): -2}, 4: {(0, 1): 1}})
WRONG_OCHANINE_Q = plane(DE, {2: {(1, 0): 4}, 4: {(2, 0): 2, (0, 1): -2}})


def first_miss(table, images, expected):
    """The first n at which the table, specialized by ``images`` (keyed by
    variable index), differs from ``expected(n)``, or None."""
    names = table.series.vars.names
    target = images[1].vars
    mapping = {names[i - 1]: img for i, img in images.items()}
    for n in range(1, table.series.order + 1):
        if table[n].substitute(mapping, target) != expected(n):
            return n
    return None


class TestClassicalGenera:
    ORDER = 18

    @pytest.fixture(scope="class")
    def phi(self):
        return genus.phi_kh_table(self.ORDER)

    def test_chi_y_plane(self, phi):
        assert first_miss(phi, CHI_Y_PLANE, chi_y_value) is None

    def test_ochanine_plane(self, phi):
        assert first_miss(phi, OCHANINE_Q, ochanine_value) is None
        # on the level-2 elliptic genus phi_KH agrees with psi
        assert first_miss(genus.psi_table(self.ORDER), OCHANINE_P, ochanine_value) is None

    def test_wrong_plane_fails(self, phi):
        assert first_miss(phi, WRONG_OCHANINE_Q, ochanine_value) == 4

    def test_q1_bump_fails(self, phi):
        bad = perturbed_table(phi, 5, Poly.var(q_vars(), "q1", power=5))
        assert first_miss(bad, CHI_Y_PLANE, chi_y_value) == 5

    def test_q2_bump_fails(self, phi):
        bad = perturbed_table(phi, 6, Poly.var(q_vars(), "q2", power=3))
        assert first_miss(bad, CHI_Y_PLANE, chi_y_value) == 6
        assert first_miss(bad, OCHANINE_Q, ochanine_value) == 6

    def test_closed_forms_give_the_classical_values(self):
        # Todd (b = 0) is 1, the signature (a = b = 1) is 1 on even CP_n and 0
        # on odd, the Euler characteristic (a = 1, b = -1) is n + 1, and A-hat
        # (d = -1/8, e = 0) is binom(-1/2, k) / 4^k on CP_2k
        point = VarTable([], [])

        def at(value, **values):
            images = {name: Poly.const(point, Fraction(v)) for name, v in values.items()}
            return value.substitute(images, point)

        for n in range(1, self.ORDER + 1):
            assert at(chi_y_value(n), a=1, b=0) == Poly.one(point)
            assert at(chi_y_value(n), a=1, b=1) == Poly.const(point, (n + 1) % 2)
            assert at(chi_y_value(n), a=1, b=-1) == Poly.const(point, n + 1)
            k, odd = divmod(n, 2)
            a_hat = 0 if odd else Fraction(math.comb(2 * k, k), (-4) ** k) / 4**k
            assert at(ochanine_value(n), d=Fraction(-1, 8), e=0) == Poly.const(point, a_hat)


class TestOde:
    def test_small_order(self):
        rep = genus.verify_krichever_ode(2)
        assert rep.passed

    def test_order_two_exponential_coefficient(self):
        # hand computation: the exponential of the order-2 solution starts
        # x - q1/4 x^2
        table = genus.phi_kh_table(2)
        qv = table.series.vars
        f = genus._log_from_table(table, 3).revert()
        assert f.coeffs[2] == Poly.var(qv, "q1").scale(Fraction(-1, 4))

    def test_order_ten(self):
        rep = genus.verify_krichever_ode(10)
        assert rep.passed, rep.first_failure

    def test_perturbation_detected(self):
        table = genus.phi_kh_table(4)
        bad = perturbed_table(table, 1, Poly.var(table.series.vars, "q1"))
        rep = genus.verify_krichever_ode(4, table=bad)
        assert not rep.passed
        assert rep.first_failure["monomial"] == "x^1"


class TestLemma1:
    @pytest.mark.parametrize("n", [2, 8])
    def test_passes(self, n):
        rep = genus.verify_lemma1(n)
        assert rep.passed, rep.first_failure

    def test_wrong_isomorphism_detected(self, monkeypatch):
        monkeypatch.setattr(genus, "nu_series", Series1.identity)
        rep = genus.verify_lemma1(4)
        assert not rep.passed

    def test_right_side_is_the_series_kappa_runs(self, monkeypatch):
        # a fault in mog_series, which kappa_table runs, fails the suite
        real = genus.mog_series

        def bumped(vars, order):
            mog = real(vars, order)
            coeffs = list(mog.coeffs)
            coeffs[3] = coeffs[3] + Poly.var(vars, "CP1", 2)
            return Series1(vars, order, coeffs)

        monkeypatch.setattr(genus, "mog_series", bumped)
        rep = genus.verify_lemma1(4)
        assert not rep.passed
        assert rep.first_failure["monomial"] == "x^3"


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
        assert not sq.coeffs[5] and not sq.coeffs[6]
        assert sq.coeffs[1] == Poly.var(qv, "q1")
        assert sq.coeffs[4] == Poly.var(qv, "q4")


def _law_A(table, w):
    """A = F (x omega(y) - y omega(x)) of the law whose logarithm the table
    gives, omega_k = [x^k y] F, to total degree w + 1 by one ``Series2.mul``.
    It shares nothing with ``fgl.compute_A``, whose integrality assert
    rejects a law over Q[q]."""
    log = genus._log_from_table(table, w + 1)
    F = formal_group_law(log.revert(), log)
    qv = F.vars
    twist = {}
    for k in range(w + 1):
        omega_k = F.coefficient(k, 1)
        twist[1, k] = twist.get((1, k), Poly.zero(qv)) + omega_k
        twist[k, 1] = twist.get((k, 1), Poly.zero(qv)) - omega_k
    return F.mul(Series2(qv, w + 1, twist))


def _slot_A(F, w):
    """{(i, j): A_ij} for i < j and i + j <= w + 2, by the slot formula of
    ``fgl.compute_A``, A_ij = sum_k omega_k (F_(i-1,j-k) - F_(i-k,j-1)) with
    omega_k = [x^k y] F, but with no integrality assert, so that it takes a
    law over Q[q]."""
    F, vars = F.coeffs, F.vars
    omega = [F[k, 1] for k in range(w + 1)]
    out = {}
    for j in range(1, w + 3):
        for i in range(min(j, w + 3 - j)):
            pairs = [(omega[k], F[i - 1, j - k]) for k in range(j + 1) if (i - 1, j - k) in F]
            pairs += [(-omega[k], F[i - k, j - 1]) for k in range(i + 1) if (i - k, j - 1) in F]
            if pairs:
                out[i, j] = Poly.dot(vars, pairs)
    return out


def _high_slots(A):
    """The slots (i, j) with i, j >= 3 where A_ij is nonzero, sorted."""
    return sorted(slot for slot in A.coeffs if min(slot) >= 3)


class TestConclusion:
    """The paper's conclusion over Q: the phi_KH law is a Krichever law, its
    A_ij vanish for i, j >= 3, and laws that are not have high A_ij."""

    def test_phi_kh_law_kills_the_high_A_ij(self):
        for w in (8, 10, 12):
            assert _high_slots(_law_A(genus.phi_kh_table(w + 1), w)) == [], w
        # the low A_ij, on rows and columns 1 and 2, are not all zero
        assert len(_law_A(genus.phi_kh_table(11), 10).coeffs) == 18

    def test_t_psi_law_is_not_a_krichever_law(self):
        # strictly isomorphic to the phi_KH law, but its high A_ij survive
        for w, count in ((8, 8), (10, 18), (12, 32)):
            assert len(_high_slots(_law_A(genus.t_psi_table(w + 1), w))) == count, w

    def test_b_model_A_ij_map_onto_the_A_ij_of_the_phi_kh_law(self):
        # beta: b_i -> [x^(i+1)] exp_phi is the ring map that sends the
        # universal law to the phi_KH law, so by naturality it sends each
        # b-model A_ij to the A_ij of the phi_KH law
        qv, zero = q_vars(), Poly.zero(q_vars())

        def mismatches(b_model, images, A_phi):
            slots = {s for s, a in b_model.A.coeffs.items() if s[0] < s[1] and a}
            assert {s for s, a in A_phi.items() if a} <= slots
            bad = [
                s for s in slots if b_model.A.coeffs[s].substitute(images, qv) != A_phi.get(s, zero)
            ]
            return len(slots), len(bad)

        for w in range(2, 11):
            log_phi = genus._log_from_table(genus.phi_kh_table(w), w + 1)
            exp_phi = log_phi.revert()
            A_phi = _slot_A(formal_group_law(exp_phi, log_phi), w)
            b_model = fgl.compute_A(fgl.build_universal_fgl(w))
            beta = {f"b{i}": exp_phi.coeffs[i + 1] for i in range(1, w + 1)}
            slots, bad = mismatches(b_model, beta, A_phi)
            assert bad == 0, w
        assert slots == 22  # at w = 10
        # a bumped image of b_3 is not the ring map of the phi_KH law
        bumped = {**beta, "b3": beta["b3"] + Poly.var(qv, "q1", power=3)}
        assert mismatches(b_model, bumped, A_phi) == (22, 20)

    def test_perturbed_phi_kh_laws_have_high_A_ij(self):
        # each bump is on an entry at most w = 10, which the law reads
        qv = q_vars()
        phi = genus.phi_kh_table(11)
        bumps = [
            (3, Poly.var(qv, "q3", coeff=2), 18, (3, 4)),
            (5, Poly.var(qv, "q1", power=5), 18, (3, 4)),
            (6, Poly.var(qv, "q2") * Poly.var(qv, "q4"), 16, (3, 5)),
        ]
        for i, delta, count, first in bumps:
            high = _high_slots(_law_A(perturbed_table(phi, i, delta), 10))
            assert (len(high), high[0]) == (count, first), i


def _bad_phi(monkeypatch):
    real = genus.phi_kh_table
    q1 = Poly.var(q_vars(), "q1")
    monkeypatch.setattr(genus, "phi_kh_table", lambda n: perturbed_table(real(n), 1, q1))


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
    # 31,198 term products; 31,496 when part (b) built the t o psi table at
    # order 12 to read it to degree 6, 46,504 with the back-substituted phi_KH
    # table and 69,583 when the kappa table was built twice per run
    work = products_formed(monkeypatch, lambda: genus.verify_lemma2_theorem1(12))
    assert 0 < work <= 31_300


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
    s = Series1(qv, degree + 1, [Poly.zero(qv)] + phi.series.coeffs)
    assert 0 < products_formed(monkeypatch, lambda: f_tpsi.subs_xy(s)) <= 16_000


def _bad_t_psi(monkeypatch):
    # part (a) of lemma 2 determines phi_1..phi_n, so any change to phi fails
    # there first; the strict isomorphism of part (b) is reached through t o psi
    real = genus.t_psi_table
    q2 = Poly.var(q_vars(), "q2")
    monkeypatch.setattr(genus, "t_psi_table", lambda n: perturbed_table(real(n), 2, q2))


def _ode_fault(monkeypatch):
    _bad_phi(monkeypatch)
    return genus.verify_krichever_ode(4)


def _lemma1_fault(monkeypatch):
    monkeypatch.setattr(genus, "nu_series", Series1.identity)
    return genus.verify_lemma1(4)


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
