"""Genera on the generators of the rational complex bordism ring.

Computes the square-root genus (values in Q[p1..p4]), the twist genus
kappa attached to the strict isomorphism x*CP(x), its inverse, and the
four-parameter complex elliptic genus obtained as the composite
rename(p->q) o psi o kappa^{-1}.  A genus table is applied as a ring map by
``Poly.substitute`` on ``GenusTable.images()``.  The verifiers re-derive each
identity from scratch so they can serve as independent oracles for the
tables; these suites and the ones in ``fgl`` all report through
``compare_slots``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

DEFAULT_ORDER = 8
# Largest --order the CLI accepts; README lists the runtimes up to it.
ORDER_CEILING = 16


@dataclass(frozen=True)
class GenusTable:
    """Values of a genus on CP_1 .. CP_N; entry i is homogeneous of weight i."""

    name: str
    max_index: int
    vars: object
    entries: dict = field(compare=False)

    def __post_init__(self):
        for i, v in self.entries.items():
            if v and not v.is_homogeneous(i):
                raise ValueError(f"{self.name}(CP_{i}) is not homogeneous of weight {i}")

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


@dataclass(frozen=True)
class Report:
    """Outcome of a verification suite; failures carry the first bad slot."""

    suite: str
    order: int
    passed: bool
    first_failure: dict | None = None

    def to_json(self):
        return {
            "suite": self.suite,
            "order": self.order,
            "pass": self.passed,
            "first_failure": self.first_failure,
        }


def compare_slots(suite, order, lhs, rhs):
    """Report on two coefficient maps, failing at their first differing slot.

    ``lhs`` and ``rhs`` map slots to Poly: a coefficient list is read as
    {k: coeffs[k]}, and a slot missing from one side reads as 0 there.  The
    slots of both are compared in sorted order and the first mismatch is
    reported as a monomial in x, y, z (slot k is x^k, (i, j) is x^i*y^j).
    An rhs value may instead be a str naming the condition that the lhs
    value must meet; such a slot always fails and prints that text.  Series
    compared this way must share one truncation order.
    """
    lhs, rhs = (m if isinstance(m, dict) else dict(enumerate(m)) for m in (lhs, rhs))
    for slot in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(slot), rhs.get(slot)
        a = Poly.zero(b.vars) if a is None else a
        b = Poly.zero(a.vars) if b is None else b
        if a != b:
            exps = slot if isinstance(slot, tuple) else (slot,)
            failure = {
                "monomial": "*".join(f"{v}^{e}" for v, e in zip("xyz", exps)),
                "lhs": a.text(),
                "rhs": b if isinstance(b, str) else b.text(),
            }
            return Report(suite, order, False, failure)
    return Report(suite, order, True)


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


def mishchenko_log(vars, order):
    """log(x) = x + sum CP_i x^(i+1) / (i+1), the logarithm of the table CP_i -> CP_i."""
    cps = {i: Poly.var(vars, f"CP{i}") for i in range(1, order)}
    return _log_from_table(GenusTable("CP", order - 1, vars, cps), order)


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
    log = mishchenko_log(vars, order)
    return log.compose(nu_series(vars, order).revert())


def kappa_table(n=DEFAULT_ORDER):
    """kappa(CP_i) read off from mog = log o nu^{-1}."""
    cv = cp_vars(n)
    mog = mog_series(cv, n + 1)
    return GenusTable(
        "kappa", n, cv, {i: mog.coeffs[i + 1].scale(i + 1) for i in range(1, n + 1)}
    )


def kappa_inverse_table(n=DEFAULT_ORDER, kappa=None):
    """Preimages kappa^{-1}(CP_w), by back-substitution weight by weight.

    kappa(CP_w) = c_w*CP_w + R_w(CP_1..CP_{w-1}) with c_w = -w, and kappa is
    a ring map, so kappa^{-1}(CP_w) = (CP_w - R_w(kappa^{-1}(CP_1), ...)) / c_w:
    one substitution per weight, into the preimages already found.
    """
    if kappa is None:
        kappa = kappa_table(n)
    cv = kappa.vars
    kappa_images = kappa.images()
    entries = {}
    for w in range(1, n + 1):
        target = Poly.var(cv, f"CP{w}")
        c = kappa[w].coefficient(next(iter(target.terms)))
        if not c:
            raise ValueError(f"kappa(CP_{w}) has no CP_{w} term; kappa is not invertible")
        rest = kappa[w] - target.scale(c)
        images = {f"CP{i}": entries[i] for i in range(1, w)}
        entries[w] = (target - rest.substitute(images, cv)).scale(1 / Fraction(c))
        if entries[w].substitute(kappa_images, cv) != target:
            raise AssertionError(f"kappa o kappa^-1 failed at weight {w}")
    return GenusTable("kappa_inv", n, cv, entries)


def phi_kh_table(n=DEFAULT_ORDER):
    """The four-parameter elliptic genus via rename o psi o kappa^{-1}."""
    kinv = kappa_inverse_table(n)
    psi = psi_table(n).images()
    pv = p_vars()
    entries = {i: _p_to_q(kinv[i].substitute(psi, pv)) for i in range(1, n + 1)}
    return GenusTable("phi_kh", n, q_vars(), entries)


def _p_to_q(poly):
    """The rename p_i -> q_i from Q[p1..p4] to Q[q1..q4]."""
    qv = q_vars()
    return poly.substitute({f"p{i}": Poly.var(qv, f"q{i}") for i in range(1, 5)}, qv)


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
    rhs = Series1.one(qv, n - 1)
    upow = Series1.one(qv, n - 1)
    for i in range(1, 5):
        upow = upow.mul(u.truncate(n - 1))
        rhs = rhs + upow.mul_poly(Poly.var(qv, f"q{i}"))
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
    rhs = log.compose(nu.revert()).truncate(n)
    return compare_slots("lemma1", n, lhs.coeffs, rhs.coeffs)


def verify_lemma2_theorem1(n=DEFAULT_ORDER, iso_degree=None):
    """Quartic square of the twisted invariant form, and the strict iso.

    (a) pushing 1/mog' through phi_KH gives a series whose square is the
        monic-quartic 1 + q1 x + ... + q4 x^4 (all higher coefficients 0);
    (b) s(x) = sum phi_KH(CP_i) x^(i+1) (CP_0 = 1) intertwines the law
        with logarithm from the phi_KH table and the one from t o psi.
    """
    if iso_degree is None:
        iso_degree = min(n, 6)
    cv = cp_vars(n)
    qv = q_vars()
    phi = phi_kh_table(n)
    # (a)
    omega_t = mog_series(cv, n + 1).derivative().reciprocal()
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
    rhs2 = f_tpsi.subs_xy(s, s)
    rep2 = compare_slots("theorem1-strict-iso", iso_degree, lhs2.coeffs, rhs2.coeffs)
    if not rep2.passed:
        return rep2
    return Report("lemma2-theorem1", n, True)
