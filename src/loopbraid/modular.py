"""Integers modulo m: the residue class ``ZmInt``, its ring descriptor
``IntegersMod(m)`` for the matrix layer, inverses, the unit group and the
subgroup that residues generate.

Nothing here loads ``fractions``: an ``affine-image`` run, which works on
plain int residues, imports only this module and ``errors`` for its
arithmetic.
"""

from __future__ import annotations

import math

from .errors import InvalidParameters, NotAUnit


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
