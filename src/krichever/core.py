"""Exact rational arithmetic, sparse graded polynomials and truncated series.

Everything is immutable after construction and exact, with no floating
point anywhere.  Integral coefficients are plain ``int``; a coefficient is a
``fractions.Fraction`` only where a denominator really occurs.
Polynomials are sparse dicts keyed by exponent vectors over a fixed
``VarTable``; univariate and bivariate truncated power series carry
polynomial coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .backend import kernels

Rational = Fraction

ZERO = 0
ONE = 1


class VarTable:
    """Ordered list of named, weighted variables.

    The weight of a monomial is the weight-sum of its factors; series in the
    logarithm family are graded with the coefficient of x^k homogeneous of
    weight k.
    """

    __slots__ = ("names", "weights", "index")

    def __init__(self, names, weights):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if len(names) != len(weights) or any(w <= 0 for w in weights):
            raise ValueError("need one positive weight per variable")
        self.names = names
        self.weights = weights
        self.index = {n: i for i, n in enumerate(names)}

    @classmethod
    def generators(cls, prefix, n):
        """n variables prefix1..prefixN with weight(prefix_i) = i."""
        return cls([f"{prefix}{i}" for i in range(1, n + 1)], range(1, n + 1))

    def monomial_weight(self, exps):
        return sum(e * w for e, w in zip(exps, self.weights))

    def __eq__(self, other):
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        return f"VarTable({list(self.names)!r})"


def p_vars():
    return VarTable.generators("p", 4)


def q_vars():
    return VarTable.generators("q", 4)


def cp_vars(n):
    return VarTable.generators("CP", n)


def b_vars(n):
    return VarTable.generators("b", n)


def _as_scalar(c):
    """An exact scalar as ``int`` when integral, else as ``Fraction``."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact scalar: {c!r}")


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one slot per VarTable entry) to nonzero
    ints or, where a denominator occurs, Fractions.  Canonical ordering of
    monomials is graded lex descending: higher weight first, ties broken by
    the exponent vector.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = vars
        if terms:
            self.terms = {e: _as_scalar(c) for e, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(vars.names): c})

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars, name, power=1, coeff=1):
        e = [0] * len(vars.names)
        e[vars.index[name]] = power
        return cls(vars, {tuple(e): coeff})

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mismatched variable tables")

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, ZERO) + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        out = Poly(self.vars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly(self.vars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = Poly(self.vars)
        out.terms = kernels.poly_mul_terms(self.terms, other.terms)
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def scale(self, c):
        """Multiply by a scalar; a fractional ``c`` keeps integral results as int."""
        c = _as_scalar(c)
        out = Poly(self.vars)
        if isinstance(c, Fraction):
            out.terms = {e: _as_scalar(c * v) for e, v in self.terms.items()}
        elif c:
            out.terms = {e: c * v for e, v in self.terms.items()}
        return out

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), ZERO)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars.names), ZERO)

    def is_homogeneous(self, weight=None):
        ws = {self.vars.monomial_weight(e) for e in self.terms}
        if not ws:
            return True
        if len(ws) > 1:
            return False
        return weight is None or ws == {weight}

    def weight(self):
        """Weight of a nonzero homogeneous polynomial."""
        ws = {self.vars.monomial_weight(e) for e in self.terms}
        if len(ws) != 1:
            raise ValueError("weight of zero or inhomogeneous polynomial")
        return ws.pop()

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def substitute(self, images, target):
        """Ring-map application: every variable gets an image polynomial.

        ``images`` maps variable names to Poly over ``target``; variables
        not listed are sent to 0 if they do not appear.
        """
        out = Poly.zero(target)
        names = self.vars.names
        cache = {}
        for e, c in self.terms.items():
            m = Poly.const(target, c)
            for i, p in enumerate(e):
                if not p:
                    continue
                key = (i, p)
                if key not in cache:
                    img = images.get(names[i])
                    if img is None:
                        raise KeyError(f"no image for {names[i]}")
                    cache[key] = img**p
                m = m * cache[key]
            out = out + m
        return out

    def sorted_terms(self):
        w = self.vars.monomial_weight
        return sorted(self.terms.items(), key=lambda t: (w(t[0]), t[0]), reverse=True)

    def text(self):
        """Canonical text form, e.g. ``3/8*p1^2 - 1/2*p2``."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for name, p in zip(self.vars.names, e):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = text

    @classmethod
    def parse(cls, text, vars):
        """Inverse of :meth:`text` (also accepts unnormalized input)."""
        s = text.strip()
        if s == "0":
            return cls.zero(vars)
        s = s.replace("**", "^")
        tokens = re.findall(r"[+-]|[^+\-\s]+", s)
        out = cls.zero(vars)
        sign = 1
        pending = None
        for tok in tokens:
            if tok == "+" or tok == "-":
                if pending is not None:
                    out = out + pending
                    pending = None
                sign = 1 if tok == "+" else -1
                continue
            term = cls._parse_term(tok, vars, sign)
            if pending is not None:
                out = out + pending
            pending = term
            sign = 1
        if pending is not None:
            out = out + pending
        return out

    @classmethod
    def _parse_term(cls, tok, vars, sign):
        coeff = Fraction(sign)
        exps = [0] * len(vars.names)
        for fac in tok.split("*"):
            fac = fac.strip()
            if not fac:
                continue
            m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*?)(?:\^(\d+))?", fac)
            if m and m.group(1) in vars.index:
                exps[vars.index[m.group(1)]] += int(m.group(2) or 1)
            else:
                coeff *= Fraction(fac)
        return cls(vars, {tuple(exps): coeff})

    def to_json(self):
        return [
            {"coeff": str(c), "exps": list(e)} for e, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data, vars):
        terms = {}
        for item in data:
            exps = tuple(item["exps"])
            if len(exps) != len(vars.names):
                raise ValueError(
                    f"exponent vector {list(exps)} does not match {len(vars.names)} variables"
                )
            terms[exps] = Fraction(item["coeff"])
        return cls(vars, terms)


class Series1:
    """Truncated univariate power series with Poly coefficients.

    ``coeffs[k]`` is the coefficient of x^k, 0 <= k <= order.  Operations
    never report coefficients beyond the truncation order.
    """

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, vars, order, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need order+1 coefficients")
        self.vars = vars
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_scalars(cls, vars, order, scalars):
        cs = [Poly.const(vars, c) for c in scalars]
        cs += [Poly.zero(vars)] * (order + 1 - len(cs))
        return cls(vars, order, cs[: order + 1])

    @classmethod
    def zero(cls, vars, order):
        return cls(vars, order, [Poly.zero(vars)] * (order + 1))

    @classmethod
    def one(cls, vars, order):
        return cls.from_scalars(vars, order, [1])

    @classmethod
    def identity(cls, vars, order):
        """The series x."""
        return cls.from_scalars(vars, order, [0, 1])

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mismatched variable tables")

    def coefficient(self, k):
        if k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def valuation(self):
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.order + 1

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series1(self.vars, order, self.coeffs[: order + 1])

    def __eq__(self, other):
        return (
            isinstance(other, Series1)
            and self.vars == other.vars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = Series1(
                self.vars,
                self.order,
                [other if isinstance(other, Poly) else Poly.const(self.vars, other)]
                + [Poly.zero(self.vars)] * self.order,
            )
        self._check(other)
        n = min(self.order, other.order)
        return Series1(
            self.vars, n, [a + b for a, b in zip(self.coeffs, other.coeffs)][: n + 1]
        )

    __radd__ = __add__

    def __neg__(self):
        return Series1(self.vars, self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Series1):
            return self + (-other)
        return self + (-Poly.const(self.vars, other) if not isinstance(other, Poly) else -other)

    def scale(self, c):
        return Series1(self.vars, self.order, [p.scale(c) for p in self.coeffs])

    def mul_poly(self, p):
        return Series1(self.vars, self.order, [c * p for c in self.coeffs])

    def mul(self, other, order=None):
        """Exact truncated product; result order min(N_f, N_g) by default.

        A higher ``order`` may be requested when the discarded tails cannot
        contribute, i.e. when each factor's valuation covers the other's
        missing range; this is asserted.
        """
        self._check(other)
        n = min(self.order, other.order)
        if order is not None:
            if order > n:
                if (
                    other.valuation() < order - self.order
                    or self.valuation() < order - other.order
                ):
                    raise ValueError("requested order not determined by truncations")
            n = order
        zero = Poly.zero(self.vars)
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a or i > n:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series1(self.vars, n, out)

    __mul__ = mul

    def derivative(self):
        if self.order == 0:
            return Series1.zero(self.vars, 0)
        return Series1(
            self.vars,
            self.order - 1,
            [c.scale(k) for k, c in enumerate(self.coeffs)][1:],
        )

    def shift_down(self, k=1):
        """Divide by x^k; the dropped coefficients must be zero."""
        if any(self.coeffs[i] for i in range(k)):
            raise ValueError("series not divisible by x^k")
        return Series1(self.vars, self.order - k, self.coeffs[k:])

    def reciprocal(self):
        """Inverse of a series with constant coefficient 1."""
        if self.coeffs[0] != Poly.one(self.vars):
            raise ValueError("reciprocal needs constant term 1")
        n = self.order
        inv = [Poly.one(self.vars)]
        for k in range(1, n + 1):
            acc = Poly.zero(self.vars)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * inv[k - i]
            inv.append(-acc)
        return Series1(self.vars, n, inv)

    def compose(self, g):
        """(self o g) for g with zero constant term, as sum_j f_j g^j.

        The powers g^j come from repeated multiplication by g.  Since g^j has
        valuation j, each power costs less than a Horner step on a dense
        accumulator would.
        """
        self._check(g)
        if g.coeffs[0]:
            raise ValueError("composition needs zero constant term")
        n = min(self.order, g.order)
        gt = g.truncate(n)
        out = [self.coeffs[0]] + [Poly.zero(self.vars)] * n
        power = gt
        for j in range(1, n + 1):
            if j > 1:
                power = power.mul(gt)
            fj = self.coeffs[j]
            if fj:
                for k in range(j, n + 1):
                    if power.coeffs[k]:
                        out[k] = out[k] + fj * power.coeffs[k]
        return Series1(self.vars, n, out)

    def revert(self):
        """Compositional inverse g of f = x + O(x^2), from a table of powers.

        ``P[j][k]`` is the x^k coefficient of g^j.  Its recurrence
        ``P[j][k] = sum_{i=1}^{k-j+1} g_i * P[j-1][k-i]`` uses only g_1 ..
        g_{k-1} for j >= 2, so column k of the table is known before g_k,
        which then solves [x^k] f(g) = 0 as ``g_k = -sum_{j=2}^k f_j P[j][k]``.
        That is about n^3/6 products, all in the coefficient ring.
        """
        if self.coeffs[0] or self.coeffs[1] != Poly.one(self.vars):
            raise ValueError("reversion needs f = x + higher order")
        n = self.order
        zero = Poly.zero(self.vars)
        g = [zero, Poly.one(self.vars)]
        # P[1] is g itself; row j >= 2 holds zeros below column j
        P = [None, g]
        for k in range(2, n + 1):
            acc = zero
            for j in range(2, k + 1):
                if j == len(P):
                    P.append([zero] * j)
                prev = P[j - 1]
                s = zero
                for i in range(1, k - j + 2):
                    if g[i] and prev[k - i]:
                        s = s + g[i] * prev[k - i]
                P[j].append(s)
                if self.coeffs[j] and s:
                    acc = acc + self.coeffs[j] * s
            g.append(-acc)
        return Series1(self.vars, n, g)

    def inv_sqrt(self):
        """Series r with r^2 * f = 1, for f with constant coefficient 1."""
        s = self.reciprocal()
        n = self.order
        half = Fraction(1, 2)
        t = [Poly.one(self.vars)]
        for k in range(1, n + 1):
            acc = s.coeffs[k]
            for i in range(1, k):
                acc = acc - t[i] * t[k - i]
            t.append(acc.scale(half))
        return Series1(self.vars, n, t)

    def is_integral(self):
        return all(c.is_integral() for c in self.coeffs)

    def is_graded(self, shift=0):
        """Coefficient of x^k homogeneous of weight k + shift."""
        return all(
            c.is_zero or c.is_homogeneous(k + shift)
            for k, c in enumerate(self.coeffs)
        )

    def text(self, varname="x"):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c and k > 0:
                continue
            xs = "" if k == 0 else (varname if k == 1 else f"{varname}^{k}")
            body = c.text()
            if xs:
                body = f"({body})*{xs}"
            parts.append(body)
        return " + ".join(parts) + f" + O({varname}^{self.order + 1})"


class Series2:
    """Truncated bivariate power series with Poly coefficients.

    Coefficients are stored for total degree i + j <= order.
    """

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, vars, order, coeffs):
        self.vars = vars
        self.order = order
        self.coeffs = {k: v for k, v in coeffs.items() if v}
        if any(i + j > order for i, j in self.coeffs):
            raise ValueError("coefficient beyond truncation order")

    @classmethod
    def zero(cls, vars, order):
        return cls(vars, order, {})

    @classmethod
    def from_series1(cls, s, order, slot):
        """Embed a univariate series as a series in x (slot 0) or y (slot 1)."""
        coeffs = {}
        for k, c in enumerate(s.coeffs):
            if k > order:
                break
            key = (k, 0) if slot == 0 else (0, k)
            coeffs[key] = c
        return cls(s.vars, min(order, s.order), coeffs)

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mismatched variable tables")

    def coefficient(self, i, j):
        if i + j > self.order:
            raise IndexError(f"coefficient ({i},{j}) beyond truncation order")
        return self.coeffs.get((i, j), Poly.zero(self.vars))

    def valuation(self):
        return min((i + j for i, j in self.coeffs), default=self.order + 1)

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series2(
            self.vars, order, {k: v for k, v in self.coeffs.items() if k[0] + k[1] <= order}
        )

    def __eq__(self, other):
        return (
            isinstance(other, Series2)
            and self.vars == other.vars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        self._check(other)
        n = min(self.order, other.order)
        coeffs = {k: v for k, v in self.coeffs.items() if k[0] + k[1] <= n}
        for k, v in other.coeffs.items():
            if k[0] + k[1] <= n:
                s = coeffs.get(k, Poly.zero(self.vars)) + v
                if s:
                    coeffs[k] = s
                elif k in coeffs:
                    del coeffs[k]
        return Series2(self.vars, n, coeffs)

    def __neg__(self):
        return Series2(self.vars, self.order, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul_poly(self, p):
        return Series2(self.vars, self.order, {k: v * p for k, v in self.coeffs.items()})

    def mul(self, other, order=None):
        """Exact truncated product; see Series1.mul for the order rule."""
        self._check(other)
        n = min(self.order, other.order)
        if order is not None:
            if order > n:
                if (
                    other.valuation() < order - self.order
                    or self.valuation() < order - other.order
                ):
                    raise ValueError("requested order not determined by truncations")
            n = order
        out = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > n:
                    continue
                key = (i, j)
                prod = a * b
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return Series2(self.vars, n, out)

    __mul__ = mul

    def swap(self):
        return Series2(
            self.vars, self.order, {(j, i): v for (i, j), v in self.coeffs.items()}
        )

    def is_symmetric(self):
        return self == self.swap()

    def subs_xy(self, sx, sy, order=None):
        """Substitute univariate series (zero constant term) for x and y."""
        if sx.coeffs[0] or sy.coeffs[0]:
            raise ValueError("substitution needs zero constant terms")
        n = self.order if order is None else order
        if order is not None and order > min(self.order, sx.order, sy.order):
            raise ValueError("requested order not determined by truncations")
        zero = Poly.zero(self.vars)
        xpow = {0: Series1.one(self.vars, n)}
        ypow = {0: Series1.one(self.vars, n)}
        sxt, syt = sx.truncate(n), sy.truncate(n)
        out = {}
        for (i, j), c in sorted(self.coeffs.items()):
            if i not in xpow:
                for k in range(max(xpow) + 1, i + 1):
                    xpow[k] = xpow[k - 1].mul(sxt)
            if j not in ypow:
                for k in range(max(ypow) + 1, j + 1):
                    ypow[k] = ypow[k - 1].mul(syt)
            for a, pa in enumerate(xpow[i].coeffs):
                if not pa:
                    continue
                for b, pb in enumerate(ypow[j].coeffs):
                    if not pb or a + b > n:
                        continue
                    key = (a, b)
                    prod = (pa * pb) * c
                    if key in out:
                        out[key] = out[key] + prod
                    else:
                        out[key] = prod
        return Series2(self.vars, n, out)

    def at_y_zero(self):
        """Restriction y = 0, as a univariate series."""
        cs = [Poly.zero(self.vars) for _ in range(self.order + 1)]
        for (i, j), c in self.coeffs.items():
            if j == 0:
                cs[i] = c
        return Series1(self.vars, self.order, cs)

    def dy_at_zero(self):
        """dF/dy restricted to y = 0, as a univariate series in x."""
        cs = [Poly.zero(self.vars) for _ in range(self.order)]
        for (i, j), c in self.coeffs.items():
            if j == 1 and i < self.order:
                cs[i] = c
        return Series1(self.vars, self.order - 1, cs)

    def at_diagonal(self):
        """Substitution y = x, as a univariate series."""
        cs = [Poly.zero(self.vars) for _ in range(self.order + 1)]
        for (i, j), c in self.coeffs.items():
            cs[i + j] = cs[i + j] + c
        return Series1(self.vars, self.order, cs)

    def is_integral(self):
        return all(c.is_integral() for c in self.coeffs.values())

    def is_graded(self, shift=0):
        return all(
            c.is_homogeneous(i + j + shift) for (i, j), c in self.coeffs.items()
        )


def weighted_monomials(vars, w):
    """All exponent tuples over ``vars`` of total weight w, canonical order.

    Canonical order matches Poly.sorted_terms: lex descending on the
    exponent vector (all results share one weight).
    """
    n = len(vars.names)
    out = []

    def rec(i, rem, acc):
        if i == n:
            if rem == 0:
                out.append(tuple(acc))
            return
        wt = vars.weights[i]
        for e in range(rem // wt, -1, -1):
            acc.append(e)
            rec(i + 1, rem - e * wt, acc)
            acc.pop()

    rec(0, w, [])
    out.sort(reverse=True)
    return out


def gauss_jordan(rows):
    """Reduced row echelon form over Q, by exact Gauss-Jordan elimination.

    ``rows`` is a list of equal-length rows of ints or Fractions; it is not
    modified.  Returns (reduced rows, pivot columns): the first
    ``len(pivots)`` reduced rows are nonzero, each with a 1 in its pivot
    column and 0 in every other pivot column.
    """
    a = [list(row) for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        # a Fraction pivot, so that 1 / pivot stays exact for an int entry
        inv = 1 / Fraction(a[r][c])
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def compose1(f, g2):
    """Univariate f composed with a bivariate g2 of valuation >= 1.

    As in Series1.compose, the result is sum_j f_j g2^j with the powers
    built by repeated multiplication; g2^j has valuation j.
    """
    if (0, 0) in g2.coeffs:
        raise ValueError("composition needs zero constant term")
    n = min(f.order, g2.order)
    gt = g2.truncate(n)
    out = Series2(f.vars, n, {(0, 0): f.coeffs[0]})
    power = gt
    for j in range(1, n + 1):
        if j > 1:
            power = power.mul(gt)
        if f.coeffs[j]:
            out = out + power.mul_poly(f.coeffs[j])
    return out


def formal_group_law(exp, log):
    """F(x, y) = exp(log(x) + log(y)) for a logarithm and its inverse series.

    Both series are taken to the same order; F is truncated there.
    """
    lx = Series2.from_series1(log, exp.order, 0)
    ly = Series2.from_series1(log, exp.order, 1)
    return compose1(exp, lx + ly)
