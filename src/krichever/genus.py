"""Genera on the generators of the rational complex bordism ring.

Computes the square-root genus (values in Q[p1..p4]), the twist genus
kappa attached to the strict isomorphism x*CP(x), its inverse, and the
four-parameter complex elliptic genus obtained as the composite
rename(p->q) o psi o kappa^{-1}.  The verifiers re-derive each identity
from scratch so they can serve as independent oracles for the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Poly,
    Series1,
    Series2,
    compose1,
    cp_vars,
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


class RingMap:
    """Weight-preserving ring map given by images of the generators."""

    def __init__(self, src, images, target):
        self.src = src
        self.images = dict(images)
        self.target = target

    @classmethod
    def from_table(cls, table, src):
        return cls(src, {f"CP{i}": table[i] for i in table.entries}, table.vars)

    def __call__(self, poly):
        return poly.substitute(self.images, self.target)

    def apply_series(self, s):
        return Series1(self.target, s.order, [self(c) for c in s.coeffs])


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


def _compare_series(suite, order, lhs, rhs, varname="x"):
    for k in range(min(lhs.order, rhs.order) + 1):
        if lhs.coeffs[k] != rhs.coeffs[k]:
            return Report(
                suite,
                order,
                False,
                {
                    "monomial": f"{varname}^{k}",
                    "lhs": lhs.coeffs[k].text(),
                    "rhs": rhs.coeffs[k].text(),
                },
            )
    return Report(suite, order, True)


def _compare_series2(suite, order, lhs, rhs):
    keys = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    for i, j in keys:
        if i + j > min(lhs.order, rhs.order):
            continue
        a = lhs.coefficient(i, j)
        b = rhs.coefficient(i, j)
        if a != b:
            return Report(
                suite,
                order,
                False,
                {"monomial": f"x^{i}*y^{j}", "lhs": a.text(), "rhs": b.text()},
            )
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
    """CP(x) = 1 + sum CP_i x^i over Q[CP_1..]."""
    coeffs = [Poly.one(vars)]
    for i in range(1, order + 1):
        name = f"CP{i}"
        coeffs.append(Poly.var(vars, name) if name in vars.index else Poly.zero(vars))
    return Series1(vars, order, coeffs)


def mishchenko_log(vars, order):
    """log(x) = x + sum CP_i x^(i+1) / (i+1)."""
    coeffs = [Poly.zero(vars), Poly.one(vars)]
    for k in range(2, order + 1):
        name = f"CP{k - 1}"
        if name in vars.index:
            coeffs.append(Poly.var(vars, name, coeff=Fraction(1, k)))
        else:
            coeffs.append(Poly.zero(vars))
    return Series1(vars, order, coeffs)


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


def kappa_map(n=DEFAULT_ORDER, table=None):
    if table is None:
        table = kappa_table(n)
    return RingMap.from_table(table, table.vars)


def kappa_inverse_table(n=DEFAULT_ORDER, kappa=None):
    """Preimages kappa^{-1}(CP_w), by back-substitution weight by weight.

    kappa(CP_w) = c_w*CP_w + R_w(CP_1..CP_{w-1}) with c_w = -w, and kappa is
    a ring map, so kappa^{-1}(CP_w) = (CP_w - R_w(kappa^{-1}(CP_1), ...)) / c_w:
    one substitution per weight, into the preimages already found.
    """
    if kappa is None:
        kappa = kappa_table(n)
    cv = kappa.vars
    kmap = kappa_map(n, kappa)
    entries = {}
    for w in range(1, n + 1):
        target = Poly.var(cv, f"CP{w}")
        c = kappa[w].coefficient(next(iter(target.terms)))
        if not c:
            raise ValueError(f"kappa(CP_{w}) has no CP_{w} term; kappa is not invertible")
        rest = kappa[w] - target.scale(c)
        images = {f"CP{i}": entries[i] for i in range(1, w)}
        entries[w] = (target - rest.substitute(images, cv)).scale(1 / Fraction(c))
        if kmap(entries[w]) != target:
            raise AssertionError(f"kappa o kappa^-1 failed at weight {w}")
    return GenusTable("kappa_inv", n, cv, entries)


def phi_kh_table(n=DEFAULT_ORDER):
    """The four-parameter elliptic genus via rename o psi o kappa^{-1}."""
    kinv = kappa_inverse_table(n)
    psi = psi_table(n)
    pv, qv = p_vars(), q_vars()
    psi_map = RingMap(kinv.vars, {f"CP{i}": psi[i] for i in range(1, n + 1)}, pv)
    rename = RingMap(pv, {f"p{i}": Poly.var(qv, f"q{i}") for i in range(1, 5)}, qv)
    return GenusTable(
        "phi_kh", n, qv, {i: rename(psi_map(kinv[i])) for i in range(1, n + 1)}
    )


def t_psi_table(n=DEFAULT_ORDER):
    """psi with p_i renamed to q_i (the classifying isomorphism's target)."""
    psi = psi_table(n)
    pv, qv = p_vars(), q_vars()
    rename = RingMap(pv, {f"p{i}": Poly.var(qv, f"q{i}") for i in range(1, 5)}, qv)
    return GenusTable("t_psi", n, qv, {i: rename(psi[i]) for i in range(1, n + 1)})


def _log_from_table(table, order):
    """x + sum table[i] x^(i+1)/(i+1) over the table's variables."""
    coeffs = [Poly.zero(table.vars), Poly.one(table.vars)]
    for k in range(2, order + 1):
        i = k - 1
        if i <= table.max_index:
            coeffs.append(table[i].scale(Fraction(1, k)))
        else:
            raise ValueError("table too short for requested order")
    return Series1(table.vars, order, coeffs)


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
    return _compare_series("krichever-ode", n, lhs, rhs)


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
    return _compare_series("lemma1", n, lhs, rhs)


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
    push = RingMap(cv, {f"CP{i}": phi[i] for i in range(1, n + 1)}, qv)
    pushed = push.apply_series(omega_t)
    lhs = pushed.mul(pushed)
    rhs = quartic_series(qv, n)
    rep = _compare_series("lemma2-quartic", n, lhs, rhs)
    if not rep.passed:
        return rep
    # (b)
    tpsi = t_psi_table(n)
    f_phi = _fgl_from_table(phi, iso_degree + 1)
    f_tpsi = _fgl_from_table(tpsi, iso_degree + 1)
    s = Series1(
        qv,
        iso_degree + 1,
        [Poly.zero(qv), Poly.one(qv)]
        + [phi[i] for i in range(1, iso_degree + 1)],
    )
    lhs2 = compose1(s, f_phi)
    rhs2 = f_tpsi.subs_xy(s, s)
    rep2 = _compare_series2("theorem1-strict-iso", iso_degree, lhs2, rhs2)
    if not rep2.passed:
        return rep2
    return Report("lemma2-theorem1", n, True)


def _fgl_from_table(table, order):
    """Formal group law exp(log x + log y) of the logarithm from a table."""
    log = _log_from_table(table, order)
    exp = log.revert()
    lx = Series2.from_series1(log, order, 0)
    ly = Series2.from_series1(log, order, 1)
    return compose1(exp, lx + ly)
