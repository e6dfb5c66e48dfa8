"""Exact scalar arithmetic: rationals, Laurent polynomials in q, integers mod m.

Every ring element used in the package is a value that is never changed
after construction, and supports +, -, *, ==; there is no floating point
anywhere.  Rationals are plain ``fractions.Fraction`` values and integers
plain ``int`` values.  Ring *descriptor* objects (``QQ``, ``ZZ``, ``LQ``,
``IntegersMod(m)``) carry the constants and unit tests that matrices need.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidParameters, NotAUnit

Rational = Fraction


def rational_to_str(a) -> str:
    return str(Fraction(a))


def rational_from_str(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable q over the rationals.

class LaurentPoly:
    """Finite sum of c_e * q**e with exact rational coefficients.

    Terms are kept as a dict {exponent: coefficient} with ``int``
    exponents, ``Fraction`` coefficients and no zero coefficient stored.
    Instances are immutable; a unit is exactly a single-term polynomial.
    The public constructor normalises outside input; arithmetic builds its
    results, which are clean by construction, through ``_wrap``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = Fraction(c)
                if c:
                    e = int(e)
                    c = clean.get(e, 0) + c
                    if c:
                        clean[e] = c
                    else:
                        del clean[e]
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _wrap(terms) -> "LaurentPoly":
        """Take ownership of a dict {int: nonzero Fraction}; no checks."""
        p = object.__new__(LaurentPoly)
        _set_terms(p, terms)
        return p

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def const(c) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly._wrap({0: c} if c else {})

    @staticmethod
    def gen() -> "LaurentPoly":
        return LaurentPoly._wrap({1: Fraction(1)})

    @staticmethod
    def monomial(e, c=1) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly._wrap({int(e): c} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        t = dict(a)
        for e, c in b.items():
            s = t.get(e)
            if s is None:
                t[e] = c
            else:
                s += c
                if s:
                    t[e] = s
                else:
                    del t[e]
        return LaurentPoly._wrap(t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return -other
        t = dict(a)
        for e, c in b.items():
            s = t.get(e)
            if s is None:
                t[e] = -c
            else:
                s -= c
                if s:
                    t[e] = s
                else:
                    del t[e]
        return LaurentPoly._wrap(t)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return self
        if not b:
            return other
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a monomial shifts exponents and scales coefficients; the
            # product of nonzero rationals is nonzero, so nothing cancels
            ((e1, c1),) = a.items()
            if c1 == 1:
                return LaurentPoly._wrap({e1 + e: c for e, c in b.items()})
            return LaurentPoly._wrap({e1 + e: c1 * c for e, c in b.items()})
        t = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = t.get(e)
                t[e] = c1 * c2 if s is None else s + c1 * c2
        return LaurentPoly._wrap({e: c for e, c in t.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = LaurentPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NotAUnit("Laurent polynomial with %d terms is not a unit" % len(self.terms))
        ((e, c),) = self.terms.items()
        return LaurentPoly._wrap({-e: Fraction(1) / c})

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if the quotient is not a Laurent polynomial."""
        if other.is_zero():
            raise ZeroDivisionError
        if self.is_zero():
            return self
        # shift both to ordinary polynomials and long-divide
        lo_s = min(self.terms)
        lo_o = min(other.terms)
        num = {e - lo_s: c for e, c in self.terms.items()}
        den = {e - lo_o: c for e, c in other.terms.items()}
        dden = max(den)
        lead = den[dden]
        quot = {}
        while num:
            dnum = max(num)
            if dnum < dden:
                raise NotAUnit("not divisible")
            k = dnum - dden
            f = num[dnum] / lead
            quot[k] = f
            for e, c in den.items():
                num[e + k] = num.get(e + k, Fraction(0)) - f * c
                if not num[e + k]:
                    del num[e + k]
        return LaurentPoly._wrap({e + lo_s - lo_o: c for e, c in quot.items()})

    def evaluate(self, q0) -> Fraction:
        q0 = Fraction(q0)
        return sum((c * q0 ** e for e, c in self.terms.items()), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its Fraction value, since it compares equal to it
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and 0 in t:
            return hash(t[0])
        return hash(tuple(sorted(t.items())))

    def __bool__(self):
        return bool(self.terms)

    def to_json(self):
        return [[e, rational_to_str(c)] for e, c in sorted(self.terms.items())]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        return LaurentPoly({int(e): rational_from_str(c) for e, c in data})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append("%s*q" % c)
            else:
                bits.append("%s*q^%d" % (c, e))
        return " + ".join(bits)


# the slot's own setter: cheaper than object.__setattr__ on the hot path
_set_terms = LaurentPoly.terms.__set__


# ---------------------------------------------------------------------------
# Integers modulo m.

class ZmInt:
    """A residue in [0, m); operations only between equal moduli.

    Compared and hashed by (residue, m), so it must not be changed after
    construction.
    """

    __slots__ = ("residue", "m")

    def __init__(self, residue: int, m: int):
        if m < 2:
            raise InvalidParameters("modulus must be at least 2, got %d" % m)
        self.residue = residue % m
        self.m = m

    def __eq__(self, other):
        if other.__class__ is not ZmInt:
            return NotImplemented
        return self.residue == other.residue and self.m == other.m

    def __hash__(self):
        return hash((self.residue, self.m))

    def _check(self, other):
        if isinstance(other, int):
            return ZmInt(other, self.m)
        if not isinstance(other, ZmInt) or other.m != self.m:
            raise ValueError("modulus mismatch: %r and %r" % (self, other))
        return other

    def __add__(self, other):
        other = self._check(other)
        return ZmInt(self.residue + other.residue, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return ZmInt(self.residue - other.residue, self.m)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return ZmInt(self.residue * other.residue, self.m)

    __rmul__ = __mul__

    def __neg__(self):
        return ZmInt(-self.residue, self.m)

    def __bool__(self):
        return self.residue != 0

    def __repr__(self):
        return "%d (mod %d)" % (self.residue, self.m)

    def to_json(self):
        return self.residue


def mod_inverse(a: ZmInt) -> ZmInt:
    """Multiplicative inverse mod m; NotAUnit when gcd(residue, m) != 1."""
    g = math.gcd(a.residue, a.m)
    if g != 1:
        raise NotAUnit("%r has gcd %d with the modulus" % (a, g))
    return ZmInt(pow(a.residue, -1, a.m), a.m)


def unit_group(m: int) -> set:
    """All units of Z_m as ZmInt values; cardinality is Euler's totient."""
    if m < 2:
        raise InvalidParameters("modulus must be at least 2, got %d" % m)
    return {ZmInt(r, m) for r in range(m) if math.gcd(r, m) == 1}


def subgroup_generated(m: int, gens) -> set:
    """Subgroup of Z_m^x generated by the given residues."""
    gens = [g % m for g in gens]
    if any(math.gcd(g, m) != 1 for g in gens):
        raise InvalidParameters("generators must be units mod %d" % m)
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = (a * g) % m
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Ring descriptors used by the matrix layer.

class RationalField:
    name = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit")
        return Fraction(1) / a

    def to_json(self, a):
        return rational_to_str(a)

    def __repr__(self):
        return "QQ"


class IntegerRing:
    name = "integer"

    zero = 0
    one = 1

    def from_int(self, k):
        return int(k)

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        raise NotAUnit("%d is not a unit" % a)

    def to_json(self, a):
        return a

    def __repr__(self):
        return "ZZ"


class LaurentRing:
    name = "laurent"

    zero = LaurentPoly()
    one = LaurentPoly.const(1)

    def from_int(self, k):
        return LaurentPoly.const(k)

    def is_unit(self, a):
        return a.is_unit()

    def inv(self, a):
        return a.inverse()

    def to_json(self, a):
        return a.to_json()

    def __repr__(self):
        return "QQ[q,q^-1]"


class IntegersMod:
    def __init__(self, m: int):
        if m < 2:
            raise InvalidParameters("modulus must be at least 2, got %d" % m)
        self.m = m
        self.name = "zm:%d" % m
        self.zero = ZmInt(0, m)
        self.one = ZmInt(1, m)

    def from_int(self, k):
        return ZmInt(k, self.m)

    def is_unit(self, a):
        return math.gcd(a.residue, self.m) == 1

    def inv(self, a):
        return mod_inverse(a)

    def to_json(self, a):
        return a.residue

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.m == self.m

    def __hash__(self):
        return hash(("zm", self.m))

    def __repr__(self):
        return "Z_%d" % self.m


QQ = RationalField()
ZZ = IntegerRing()
LQ = LaurentRing()


# ---------------------------------------------------------------------------
# Monomial weight codes: +-b^k as the int 2k + sign.

def _monomial_codes(weights):
    """({weight: 2k + (weight < 0)}, b) for weights +-b^k, and
    InvalidParameters for any other weight.

    For rational weights b > 1 is the magnitude, or its inverse, of the
    first weight that is not +-1 (1 if there is none), so x and 1/x give
    the same base; for Laurent weights b is q, and the weights must be the
    monomials +-q^k.  Two codes are equal iff the weights are; a product
    of weights with codes c and d has the code ((c & -2) + d) ^ (c & 1)."""
    code = {}
    base = None
    laurent = False
    for w in weights:
        if w in code:
            continue
        if isinstance(w, LaurentPoly):
            if len(w.terms) != 1:
                raise InvalidParameters("weight %s is not +-q^k" % (w,))
            ((k, c),) = w.terms.items()
            if c not in (1, -1):
                raise InvalidParameters("weight %s is not +-q^k" % (w,))
            laurent = True
            code[w] = 2 * k + (c < 0)
            continue
        mag = Fraction(abs(w))
        if mag == 1:
            k = 0
        elif mag == 0:
            raise InvalidParameters("monomial codes need nonzero weights")
        else:
            if base is None:
                base = mag if mag > 1 else Fraction(1) / mag
            k = _exact_log(mag, base)
            if k is None:
                raise InvalidParameters("weight %s is not +-%s^k" % (w, base))
        code[w] = 2 * k + (w < 0)
    if laurent:
        if base is not None:
            raise InvalidParameters("weights mix q^k with the rational %s" % (base,))
        return code, LaurentPoly.gen()
    return code, base or Fraction(1)


def _exact_log(mag, base):
    """k with base^k == mag, for positive Fractions mag other than 1 and
    base > 1; None if there is none."""
    sign = 1
    if mag < 1:
        mag, sign = Fraction(1) / mag, -1
    k, p = 1, base
    while p != mag:
        if p > mag:
            return None
        k, p = k + 1, p * base
    return sign * k
