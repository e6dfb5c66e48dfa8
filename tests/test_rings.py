import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import loopbraid
from loopbraid.errors import InvalidParameters, NotAUnit
from loopbraid.rings import (LQ, QQ, IntegersMod, LaurentPoly, ZmInt,
                             is_probable_prime, mod_inverse,
                             random_prime_above_2_30, unit_group)


def test_mod_inverse_examples():
    assert mod_inverse(ZmInt(2, 5)) == ZmInt(3, 5)  # 2*3 = 6 = 1 mod 5
    for m in (2, 3, 7, 12):
        assert mod_inverse(ZmInt(1, m)) == ZmInt(1, m)
    with pytest.raises(NotAUnit):
        mod_inverse(ZmInt(2, 4))


def test_unit_group_examples():
    assert {u.residue for u in unit_group(5)} == {1, 2, 3, 4}
    # oracle: filter residues by gcd
    assert {u.residue for u in unit_group(9)} == \
        {r for r in range(9) if math.gcd(r, 9) == 1} == {1, 2, 4, 5, 7, 8}
    assert {u.residue for u in unit_group(2)} == {1}


def test_unit_group_closed_under_product_and_inverse():
    for m in (5, 8, 9, 12):
        units = unit_group(m)
        residues = {u.residue for u in units}
        for a in units:
            assert mod_inverse(a).residue in residues
            for b in units:
                assert (a * b).residue in residues


def test_mod_inverse_is_inverse():
    for m in (5, 9, 13, 21):
        for a in unit_group(m):
            assert (mod_inverse(a) * a).residue == 1


def test_zmint_normalization_and_modulus_guard():
    a = ZmInt(7, 5)
    assert a.residue == 2
    assert (-a).residue == 3
    with pytest.raises(ValueError):
        a + ZmInt(1, 7)


def test_zmint_modulus_guard_without_asserts():
    # python -O strips assert statements, so the guard must not use them
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    code = ("from loopbraid.rings import ZmInt\n"
            "try:\n    ZmInt(2, 5) + ZmInt(1, 7)\n"
            "except ValueError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_modulus_below_two_refused():
    for m in (1, 0, -3):
        for make in (lambda: ZmInt(1, m), lambda: IntegersMod(m), lambda: unit_group(m)):
            with pytest.raises(InvalidParameters):
                make()


def test_laurent_basic_arithmetic():
    q = LaurentPoly.gen()
    qi = q.inverse()
    assert q * qi == LaurentPoly.const(1)
    assert (q + qi) * (q - qi) == q ** 2 - qi ** 2
    assert (q - qi).divexact(q - qi) == LaurentPoly.const(1)
    quotient = (q ** 3 - q ** -3).divexact(q - qi)
    assert quotient == q ** 2 + 1 + q ** -2
    with pytest.raises(NotAUnit):
        (q + 1).inverse()
    with pytest.raises(NotAUnit):
        (q + 1).divexact(q - qi)


def test_laurent_ring_laws_randomized():
    # commutative ring laws on seeded random triples
    rng = random.Random(20240)
    def rand_poly():
        return LaurentPoly({rng.randrange(-4, 5): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                            for _ in range(rng.randrange(0, 4))})
    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a
        assert a - a == LaurentPoly()


def test_laurent_evaluation_and_json():
    q = LaurentPoly.gen()
    p = q ** 2 - 3 * q.inverse()
    assert p.evaluate(Fraction(2)) == Fraction(4) - Fraction(3, 2)
    data = p.to_json()
    assert data == [[-1, "-3"], [2, "1"]]
    assert LaurentPoly.from_json(data) == p


def test_ring_descriptors():
    assert QQ.inv(Fraction(3, 2)) == Fraction(2, 3)
    assert LQ.is_unit(LaurentPoly.monomial(-3, 5))
    assert not LQ.is_unit(LaurentPoly.gen() + 1)
    z9 = IntegersMod(9)
    assert not z9.is_field
    assert IntegersMod(7).is_field
    assert z9.inv(z9.from_int(2)).residue == 5


def test_prime_utilities():
    assert is_probable_prime(2 ** 31 - 1)
    assert not is_probable_prime(2 ** 30)
    p = random_prime_above_2_30(random.Random(7))
    assert p > 2 ** 30 and is_probable_prime(p)
