"""Exact rational arithmetic, sparse graded polynomials and truncated series.

Everything is immutable after construction and exact, with no floating
point anywhere.  A polynomial is an integer numerator polynomial over one
positive denominator, so every coefficient operation is on plain ``int``.
A scalar is an int numerator over a positive int denominator, and a
coefficient is read out (``sorted_terms`` and the text and JSON built on it)
as its numerator and denominator reduced by ``math.gcd``.  No module of the
package builds a ``Fraction``, whose import would cost every CLI process
``decimal`` and ``numbers`` as well.
Monomials are packed exponent vectors over a fixed ``VarTable``; univariate
and bivariate truncated power series carry polynomial coefficients.
"""

from functools import lru_cache, reduce
from math import comb, gcd, lcm
from operator import mul

from .backend import kernels

# Packed monomial keys (Monagan & Pearce, CASC 2007).  A key is one int with
# the monomial's weight in its top field and the exponent of each variable in
# a field below it, variable 0 most significant, so integer order on keys is
# graded lex order (weight first, then lex on the exponent vectors) and the
# key of a monomial product is the sum of the keys.  The weight field holds
# 0..top, top = 2**B - 1, and variable i gets the bits of top // weights[i],
# the largest exponent it can have in a monomial of weight at most top.  So
# a product of weight at most top carries between no fields, and one past top
# sets the single guard bit above the weight field.  A ``VarTable`` picks B
# from its weights alone: as large as keeps a key, guard bit included, in one
# 30-bit CPython digit, but never so small that top falls below the largest
# weight of one variable.
DIGIT_BITS = 30


class VarTable:
    """Ordered list of named, weighted variables.

    The weight of a monomial is the weight-sum of its factors; series in the
    logarithm family are graded with the coefficient of x^k homogeneous of
    weight k.  ``pack`` and ``unpack`` convert between exponent vectors and
    the packed keys that ``Poly`` stores, ``unit(i)`` is the key of variable
    i and ``key_weight(key)`` the weight of its monomial.  Keys add as their
    monomials multiply and sort in graded lex order.  Only monomials of
    weight at most ``top`` have a key; a product key past it has the
    ``guard`` bit set.  The layout of a key is chosen here, from the
    weights, and no other code reads it: outside this class a key is made
    by ``pack`` or ``unit`` or as a sum of keys.
    """

    __slots__ = ("names", "weights", "index", "top", "guard", "_shift", "_fields", "_units")

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

        def widths(b):
            top = (1 << b) - 1
            return [(top // w).bit_length() for w in weights]

        b = max(weights, default=1).bit_length()
        while 2 + b + sum(widths(b + 1)) <= DIGIT_BITS:
            b += 1
        # field starts ascending, variable n-1 first; the last is the weight field's
        starts = [0]
        for width in reversed(widths(b)):
            starts.append(starts[-1] + width)
        self._shift = shift = starts.pop()
        shifts = starts[::-1]
        self._fields = [(s, (1 << width) - 1) for s, width in zip(shifts, widths(b))]
        self._units = [(w << shift) + (1 << s) for w, s in zip(weights, shifts)]
        self.top = (1 << b) - 1
        self.guard = 1 << (shift + b)

    @classmethod
    def generators(cls, prefix, n):
        """n variables prefix1..prefixN with weight(prefix_i) = i."""
        return cls([f"{prefix}{i}" for i in range(1, n + 1)], range(1, n + 1))

    def monomial_weight(self, exps):
        return sum(map(mul, exps, self.weights))

    def pack(self, exps):
        """The packed key of an exponent vector with one entry per variable."""
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise ValueError(
                f"exponent vector {list(exps)} does not match {len(self.names)} variables"
            )
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {list(exps)}")
        w = self.monomial_weight(exps)
        if w > self.top:
            raise OverflowError(f"monomial {list(exps)} of weight {w} above the top {self.top}")
        return sum(map(mul, exps, self._units))

    def unpack(self, key):
        """The exponent vector of a packed key."""
        return tuple([key >> s & m for s, m in self._fields])

    def unit(self, i):
        """The key of variable i."""
        return self._units[i]

    def key_weight(self, key):
        """The weight of the monomial of a key: its top field."""
        return key >> self._shift

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


@lru_cache(maxsize=None)
def p_vars():
    return VarTable.generators("p", 4)


@lru_cache(maxsize=None)
def q_vars():
    return VarTable.generators("q", 4)


@lru_cache(maxsize=None)
def cp_vars(n):
    return VarTable.generators("CP", n)


@lru_cache(maxsize=None)
def b_vars(n):
    return VarTable.generators("b", n)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    The value is ``sum(c * x^vars.unpack(k) for k, c in terms.items()) / den``:
    ``terms`` maps packed exponent keys (see ``VarTable.pack``) to nonzero
    ints, and ``den`` is a positive int coprime to the gcd of the numerators,
    with ``den == 1`` for zero.  That form is unique, so equal polynomials
    have equal ``(den, terms)``.  The constructor takes exponent vectors and
    exact scalars: anything with int ``numerator`` and ``denominator``,
    such as an int (or a ``Fraction``, which the package itself never
    builds).  The arithmetic operators take Poly operands only: a
    scalar enters through ``scale`` or ``const``.
    Canonical ordering of monomials is graded lex descending: higher weight
    first, ties broken by the exponent vector.
    """

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars, terms=None):
        terms = terms or {}
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in terms.values()))
        self.vars = vars
        self.terms = {
            vars.pack(e): c.numerator * (den // c.denominator)
            for e, c in terms.items()
            if c
        }
        self.den = den

    @classmethod
    def _canonical(cls, vars, terms, den):
        """A Poly from packed ``terms`` over ``den > 0``, reduced to lowest terms."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                den //= g
                terms = {k: c // g for k, c in terms.items()}
        out = cls.__new__(cls)
        out.vars = vars
        out.terms = terms
        out.den = den
        return out

    @classmethod
    def zero(cls, vars):
        return cls._canonical(vars, {}, 1)

    @classmethod
    def const(cls, vars, c):
        # key 0 is the zero exponent vector
        return cls._canonical(vars, {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def var(cls, vars, name, power=1, coeff=1):
        e = [0] * len(vars.names)
        e[vars.index[name]] = power
        return cls(vars, {tuple(e): coeff})

    def _check(self, other):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("mismatched variable tables")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.den == other.den
            and self.terms == other.terms
        )

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        if sa == 1:
            terms = dict(self.terms)
        else:
            terms = {e: sa * c for e, c in self.terms.items()}
        for e, c in other.terms.items():
            s = terms.get(e, 0) + sb * c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return Poly._canonical(self.vars, terms, den)

    def __neg__(self):
        return Poly._canonical(self.vars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        # the weight of a product is the sum of the weights, so a product past
        # the table's top weight survives into the guard bit
        terms = kernels.poly_mul_terms(self.terms, other.terms, self.vars.guard)
        return Poly._canonical(self.vars, terms, self.den * other.den)

    @classmethod
    def dot(cls, vars, pairs):
        """sum(a * b for a, b in pairs) over ``vars``, each coefficient written once.

        The kernel sums every product over one common denominator, the lcm
        of the pairs' ``a.den * b.den``: the shorter factor of a pair with a
        smaller denominator is scaled up first.  Raises OverflowError when
        one of the products would under ``*``, even if it cancels in the sum.
        """
        dens = [a.den * b.den for a, b in pairs]
        den = lcm(*dens)
        tpairs = []
        for (a, b), d in zip(pairs, dens):
            a, b = a.terms, b.terms
            if d != den:
                if len(a) > len(b):
                    a, b = b, a
                s = den // d
                a = {e: s * c for e, c in a.items()}
            tpairs.append((a, b))
        return cls._canonical(vars, kernels.poly_dot_terms(tpairs, vars.guard), den)

    def scale(self, num, den=1):
        """Multiply by the exact scalar ``num / den``, for an int ``den > 0``.

        ``num`` is an int, or any exact scalar with int ``numerator`` and
        ``denominator``; the product is reduced to lowest terms.
        """
        den *= num.denominator
        num = num.numerator
        terms = {e: num * v for e, v in self.terms.items()} if num else {}
        return Poly._canonical(self.vars, terms, self.den * den)

    def is_homogeneous(self, weight):
        """Every term of weight ``weight``; the zero polynomial is homogeneous
        of every weight.  Keys sort by weight first, so the least and the
        greatest key decide."""
        key_weight, keys = self.vars.key_weight, self.terms
        return not keys or key_weight(min(keys)) == weight == key_weight(max(keys))

    def is_integral(self):
        return self.den == 1

    def substitute(self, images, target):
        """Ring-map application: every variable gets an image polynomial.

        ``images`` maps variable names to Poly over ``target``.  A variable
        that appears in a term must be listed, or KeyError is raised; listed
        images of variables that appear nowhere are ignored.  Each term is
        the product of its cached image powers, the last of them left as the
        second factor of a pair and the others scaled by the term's scalar;
        the terms are summed by one ``Poly.dot``.  Each image power is built
        from the one below it, one product per power.
        """
        names = self.vars.names
        cache = {}

        def power(i, p):
            if (i, p) not in cache:
                img = images.get(names[i])
                if img is None:
                    raise KeyError(f"no image for {names[i]}")
                cache[i, p] = img if p == 1 else power(i, p - 1) * img
            return cache[i, p]

        pairs = []
        for e, c in self.terms.items():
            factors = [power(i, p) for i, p in enumerate(self.vars.unpack(e)) if p]
            last = factors.pop() if factors else Poly.one(target)
            head = reduce(mul, factors).scale(c) if factors else Poly.const(target, c)
            pairs.append((head, last))
        return Poly.dot(target, pairs).scale(1, self.den)

    def sorted_terms(self):
        """(exponent vector, (numerator, denominator)) pairs in canonical
        order, each coefficient in lowest terms with a positive denominator.
        Key order is the canonical order (see ``VarTable``)."""
        unpack, den = self.vars.unpack, self.den
        terms = []
        for e, c in sorted(self.terms.items(), reverse=True):
            g = gcd(c, den)
            terms.append((unpack(e), (c // g, den // g)))
        return terms

    def text(self):
        """Canonical text form, e.g. ``3/8*p1^2 - 1/2*p2``."""
        if not self.terms:
            return "0"
        parts = []
        for e, (num, den) in self.sorted_terms():
            factors = []
            for name, p in zip(self.vars.names, e):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            if factors and den == 1 and abs(num) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_ratio(abs(num), den)] + factors)
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = text

    def to_json(self):
        return [
            {"coeff": _ratio(num, den), "exps": list(e)}
            for e, (num, den) in self.sorted_terms()
        ]


def _ratio(num, den):
    """The text of a coefficient in lowest terms, as ``str`` of a Fraction
    gives it: ``-3/8``, or ``4`` when ``den == 1``."""
    return f"{num}/{den}" if den != 1 else str(num)


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
    def one(cls, vars, order):
        return cls.from_scalars(vars, order, [1])

    @classmethod
    def identity(cls, vars, order):
        """The series x."""
        return cls.from_scalars(vars, order, [0, 1])

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mismatched variable tables")

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

    def mul(self, other):
        """Exact truncated product, to the lower of the two orders."""
        self._check(other)
        n = min(self.order, other.order)
        a = [(i, c) for i, c in enumerate(self.coeffs) if c]
        b = other.coeffs
        top = other.order
        out = [
            Poly.dot(self.vars, [(c, b[k - i]) for i, c in a if 0 <= k - i <= top and b[k - i]])
            for k in range(n + 1)
        ]
        return Series1(self.vars, n, out)

    __mul__ = mul

    def derivative(self):
        if self.order == 0:
            return Series1.from_scalars(self.vars, 0, [])
        return Series1(
            self.vars,
            self.order - 1,
            [c.scale(k) for k, c in enumerate(self.coeffs)][1:],
        )

    def reciprocal(self):
        """Inverse of a series with constant coefficient 1."""
        if self.coeffs[0] != Poly.one(self.vars):
            raise ValueError("reciprocal needs constant term 1")
        f = self.coeffs
        inv = [Poly.one(self.vars)]
        for k in range(1, self.order + 1):
            pairs = [(f[i], inv[k - i]) for i in range(1, k + 1) if f[i] and inv[k - i]]
            inv.append(-Poly.dot(self.vars, pairs))
        return Series1(self.vars, self.order, inv)

    def compose(self, g):
        """(self o g) for g with zero constant term, as sum_j f_j g^j.

        The powers g^j are read off the table ``_powers`` fills from the
        known g, up to the degree d of f, so
        [x^k] (self o g) = sum_{j <= min(k, d)} f_j [x^k] g^j is one ``Poly.dot``.
        """
        self._check(g)
        if g.coeffs[0]:
            raise ValueError("composition needs zero constant term")
        n = min(self.order, g.order)
        f = self.coeffs
        d = max((j for j in range(n + 1) if f[j]), default=0)
        P = _powers(self.vars, g.coeffs, n, d)
        out = [f[0]] + [
            Poly.dot(
                self.vars, [(f[j], P[j][k]) for j in range(1, min(k, d) + 1) if f[j] and P[j][k]]
            )
            for k in range(1, n + 1)
        ]
        return Series1(self.vars, n, out)

    def compose_inverse(self, g):
        """h = self o g^{-1} for g = x + O(x^2), solved from h o g = self.

        With ``P = _powers(g)`` the table of the known g, [x^k] (h o g) is
        sum_{j <= k} h_j P[j][k] and P[k][k] = 1, so each coefficient is one
        ``Poly.dot``: h_k = self_k - sum_{j < k} h_j P[j][k].  Both series
        are taken to the lower of their orders.
        """
        self._check(g)
        if g.order < 1 or g.coeffs[0] or g.coeffs[1] != Poly.one(self.vars):
            raise ValueError("reversion needs f = x + higher order")
        n = min(self.order, g.order)
        P = _powers(self.vars, g.coeffs, n, n)
        h = []
        for k, f_k in enumerate(self.coeffs[: n + 1]):
            pairs = [(h[j], P[j][k]) for j in range(k) if h[j] and P[j][k]]
            h.append(f_k - Poly.dot(self.vars, pairs))
        return Series1(self.vars, n, h)

    def revert(self):
        """Compositional inverse of f = x + O(x^2): x o f^{-1}, solved
        against the table of powers of the known f (``compose_inverse``)."""
        return Series1.identity(self.vars, self.order).compose_inverse(self)

    def inv_sqrt(self):
        """Series r with r^2 * f = 1, for f with constant coefficient 1.

        Miller's power recurrence for r = f^(-1/2),
        ``k r_k = sum_{l=1}^k (l/2 - k) f_l r_{k-l}``, gives each coefficient
        from one ``Poly.dot``, with no reciprocal and no squaring.
        """
        if self.coeffs[0] != Poly.one(self.vars):
            raise ValueError("inv_sqrt needs constant term 1")
        f = self.coeffs
        r = [Poly.one(self.vars)]
        for k in range(1, self.order + 1):
            # 2k r_k = sum (l - 2k) f_l r_{k-l}: integer multiples of f_l
            pairs = [
                (f[l].scale(l - 2 * k), r[k - l]) for l in range(1, k + 1) if f[l] and r[k - l]
            ]
            r.append(Poly.dot(self.vars, pairs).scale(1, 2 * k))
        return Series1(self.vars, self.order, r)


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

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mismatched variable tables")

    def coefficient(self, i, j):
        if i + j > self.order:
            raise IndexError(f"coefficient ({i},{j}) beyond truncation order")
        return self.coeffs.get((i, j), Poly.zero(self.vars))

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series2(
            self.vars, order, {k: v for k, v in self.coeffs.items() if k[0] + k[1] <= order}
        )

    def mul(self, other):
        """Exact truncated product, to the lower of the two orders."""
        self._check(other)
        n = min(self.order, other.order)
        pairs = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j <= n:
                    pairs.setdefault((i, j), []).append((a, b))
        return Series2(self.vars, n, {k: Poly.dot(self.vars, v) for k, v in pairs.items()})

    __mul__ = mul

    def subs_xy(self, s):
        """self(s(x), s(y)) for a symmetric self and a univariate s with zero
        constant term.

        With G the coefficients of self and P = ``_powers(s)``, split at s(x):
            self(s(x), s(y)) = sum_i s(x)^i H_i(y),  H_i(y) = sum_j G_ij s(y)^j,
        so H_i[b] = sum_{j <= b} G_ij P[j][b] and
        [x^a y^b] = sum_{i <= a} P[i][a] H_i[b].  Each is one ``Poly.dot``.
        The result is symmetric, so only a <= b is computed, with a <= n/2 and
        H_i[b] for b >= i, and the rest mirrored.  Every law is
        exp(log x + log y), symmetric by construction, so an asymmetric self
        raises ValueError.
        """
        if s.coeffs[0]:
            raise ValueError("substitution needs zero constant terms")
        vars, n, G = self.vars, self.order, self.coeffs
        if any(G.get((j, i)) != c for (i, j), c in G.items()):
            raise ValueError("subs_xy needs a symmetric series")
        P = _powers(vars, s.truncate(n).coeffs, n, n)
        H = [
            {
                b: Poly.dot(
                    vars, [(G[i, j], P[j][b]) for j in range(b + 1) if (i, j) in G and P[j][b]]
                )
                for b in range(i, n - i + 1)
            }
            for i in range(n // 2 + 1)
        ]
        coeffs = {}
        for a in range(n // 2 + 1):
            for b in range(a, n - a + 1):
                pairs = [(P[i][a], H[i][b]) for i in range(a + 1) if P[i][a] and H[i][b]]
                coeffs[a, b] = coeffs[b, a] = Poly.dot(vars, pairs)
        return Series2(vars, n, coeffs)

    def at_y_zero(self):
        """Restriction y = 0, as a univariate series."""
        cs = [Poly.zero(self.vars) for _ in range(self.order + 1)]
        for (i, j), c in self.coeffs.items():
            if j == 0:
                cs[i] = c
        return Series1(self.vars, self.order, cs)

    def is_integral(self):
        return all(c.is_integral() for c in self.coeffs.values())

    def is_graded(self, shift=0):
        return all(
            c.is_homogeneous(i + j + shift) for (i, j), c in self.coeffs.items()
        )


def _powers(vars, g, n, top):
    """The table ``P[j][k] = [x^k] g^j``, 0 <= j <= top, 0 <= k <= n, of the
    series g with coefficients ``g[0] = 0, g[1] .. g[n]`` (any past g[n] are
    ignored).  Rows 0 and 1 are 1 and g; row j >= 2 is zero below column j
    and is filled from the row above by
    ``P[j][k] = sum_{i=1}^{k-j+1} g_i P[j-1][k-i]`` (Brent & Kung, JACM 1978),
    about n^3/6 coefficient products when top = n, and fewer when the caller
    needs only the low powers.  ``compose``, ``compose_inverse`` and
    ``Series2.subs_xy``, and so every law, read it.
    """
    zero = Poly.zero(vars)
    P = [[Poly.one(vars)] + [zero] * n, g[: n + 1]]
    for j in range(2, top + 1):
        prev, row = P[j - 1], [zero] * j
        for k in range(j, n + 1):
            pairs = [(g[i], prev[k - i]) for i in range(1, k - j + 2) if g[i] and prev[k - i]]
            row.append(Poly.dot(vars, pairs))
        P.append(row)
    return P[: top + 1]


def compose1(f, g2):
    """Univariate f composed with a bivariate g2 with zero constant term.

    The result is sum_j f_j g2^j with the powers of g2 built by repeated
    ``Series2.mul``, since ``_powers`` is univariate; g2^j starts in degree j.
    """
    if (0, 0) in g2.coeffs:
        raise ValueError("composition needs zero constant term")
    n = min(f.order, g2.order)
    gt = g2.truncate(n)
    pairs = {}
    power = gt
    for j in range(1, n + 1):
        if j > 1:
            power = power.mul(gt)
        if f.coeffs[j]:
            for k, c in power.coeffs.items():
                pairs.setdefault(k, []).append((f.coeffs[j], c))
    coeffs = {k: Poly.dot(f.vars, v) for k, v in pairs.items()}
    coeffs[0, 0] = f.coeffs[0]
    return Series2(f.vars, n, coeffs)


def formal_group_law(exp, log):
    """F(x, y) = exp(log(x) + log(y)), as E(log x, log y) by ``Series2.subs_xy``.

    With e_k the coefficients of exp, E(X, Y) = exp(X + Y) has
    [X^i Y^j] E = C(i+j, i) e_{i+j} by the binomial theorem.  E is
    symmetric, and the H_i of ``subs_xy`` is the Taylor coefficient
    exp^(i)(log y) / i! of exp at log(y).  Over Z[b] every step is
    integral.  Both series are taken to the lower of their orders; F is
    truncated there.
    """
    vars, e = exp.vars, exp.coeffs
    n = min(exp.order, log.order)
    E = {(i, k - i): e[k].scale(comb(k, i)) for k in range(n + 1) for i in range(k + 1)}
    return Series2(vars, n, E).subs_xy(log)
