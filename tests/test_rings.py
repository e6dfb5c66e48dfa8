import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopbraid
from helpers import (dense_scale, dense_wperm_product, is_field, is_probable_prime,
                     random_prime_above_2_30)
from loopbraid.analysis import bmw_check
from loopbraid.errors import InvalidParameters, NotAUnit
from loopbraid.linalg import Matrix, WeightedPerm
from loopbraid.rings import LQ, QQ, ZZ, IntegersMod, LaurentPoly, ZmInt, mod_inverse, unit_group


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
    # python -O strips assert statements, so the guards (the ZmInt modulus
    # check, Generator's kind and exponent checks, hom_dim's module match,
    # restrict_and_branch's strand count, Matrix's row lengths, the shape of
    # an inverted matrix, a charge block's content, the symmetrizer's and
    # local_rep's strand counts, the landmark words' strand count and unit
    # 1 - t, the harmonic decomposition's partition block, the harmonic
    # projector's block and label, the operand shapes of Matrix and
    # WeightedPerm arithmetic and of det, and AGL operands) must not use them
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    code = ("from loopbraid.affine import AffineParams, AglElement, proof_word_landmarks\n"
            "from loopbraid.analysis import hom_dim, restrict_and_branch\n"
            "from loopbraid.braided import local_rep, tau_loop\n"
            "from loopbraid.errors import InvalidParameters\n"
            "from loopbraid.linalg import Matrix, WeightedPerm\n"
            "from loopbraid.rings import QQ, ZmInt\n"
            "from loopbraid.tensor import (ChargeBlock, HarmonicLabel, TauRep, f_operator,\n"
            "                              harmonic_decompose, harmonic_projector,\n"
            "                              partition_block, young_module)\n"
            "from loopbraid.words import Generator, sigma\n"
            "block = partition_block(2, 3, (2, 1))\n"
            "m22, m23 = Matrix(QQ, [[1, 1], [2, 2]]), Matrix(QQ, [[1, 1, 1], [2, 2, 2]])\n"
            "p2, p3 = WeightedPerm.identity(QQ, 2), WeightedPerm.identity(QQ, 3)\n"
            "agl = lambda m: AglElement((1, 0, 0, 1), (0, 0), m)\n"
            "at = lambda x: young_module(block, TauRep(2, x))\n"
            "for call, exc in ((lambda: ZmInt(2, 5) + ZmInt(1, 7), ValueError),\n"
            "                  (lambda: sigma(1, 2), InvalidParameters),\n"
            "                  (lambda: Generator('foo', 1), InvalidParameters),\n"
            "                  (lambda: hom_dim(at(2), at(3)), InvalidParameters),\n"
            "                  (lambda: restrict_and_branch(young_module(\n"
            "                      partition_block(2, 1, (1,)))), InvalidParameters),\n"
            "                  (lambda: Matrix(QQ, [[1, 2], [3]]), InvalidParameters),\n"
            "                  (lambda: Matrix(QQ, [[1, 2]]).inverse(), InvalidParameters),\n"
            "                  (lambda: ChargeBlock(2, 3, (1, 1)), InvalidParameters),\n"
            "                  (lambda: f_operator(3, partition_block(3, 2, (1, 1))),\n"
            "                   InvalidParameters),\n"
            "                  (lambda: local_rep(tau_loop(2), 1), InvalidParameters),\n"
            "                  (lambda: proof_word_landmarks(AffineParams(5, 2, 2)),\n"
            "                   InvalidParameters),\n"
            "                  (lambda: proof_word_landmarks(AffineParams(6, 5, 3)),\n"
            "                   InvalidParameters),\n"
            "                  (lambda: harmonic_decompose(ChargeBlock(3, 4, (1, 1, 2))),\n"
            "                   InvalidParameters),\n"
            "                  (lambda: harmonic_projector(partition_block(3, 4, (2, 1, 1)),\n"
            "                       HarmonicLabel((2, 1, 1), ((1,),))), InvalidParameters),\n"
            "                  (lambda: harmonic_projector(ChargeBlock(3, 4, (1, 1, 2)),\n"
            "                       HarmonicLabel((2, 1, 1), ((1,), (2,)))), InvalidParameters),\n"
            "                  (lambda: Matrix(QQ, [[1, 2]]) * Matrix(QQ, [[1], [2], [3]]),\n"
            "                   InvalidParameters),\n"
            "                  (lambda: m22 + m23, InvalidParameters),\n"
            "                  (lambda: m22 - m23, InvalidParameters),\n"
            "                  (lambda: m23.det(), InvalidParameters),\n"
            "                  (lambda: p2 * p3, InvalidParameters),\n"
            "                  (lambda: p2 * m23.transpose(), InvalidParameters),\n"
            "                  (lambda: m22 * p3, InvalidParameters),\n"
            "                  (lambda: agl(7) * agl(5), InvalidParameters)):\n"
            "    try:\n        call()\n    except exc:\n        continue\n"
            "    raise SystemExit(1)\n")
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
    assert not is_field(z9)
    assert is_field(IntegersMod(7)) and is_field(QQ) and not is_field(LQ)
    assert z9.inv(z9.from_int(2)).residue == 5


def test_integer_ring_descriptor():
    assert [a for a in range(-3, 4) if ZZ.is_unit(a)] == [-1, 1]
    assert ZZ.inv(1) == 1 and ZZ.inv(-1) == -1
    for a in (2, 0, -5):
        with pytest.raises(NotAUnit):
            ZZ.inv(a)
    assert ZZ.to_json(-7) == -7 and type(ZZ.to_json(-7)) is int
    assert (ZZ.zero, ZZ.one, ZZ.from_int(4)) == (0, 1, 4) and not is_field(ZZ)


def test_prime_utilities():
    assert is_probable_prime(2 ** 31 - 1)
    assert not is_probable_prime(2 ** 30)
    p = random_prime_above_2_30(random.Random(7))
    assert p > 2 ** 30 and is_probable_prime(p)


# ---------------------------------------------------------------------------
# The normalising LaurentPoly arithmetic that the kernel replaced, kept as
# the oracle: every result goes back through the public constructor, which
# coerces, merges and drops zeros.

def _old_coerce(other):
    if isinstance(other, LaurentPoly):
        return other
    if isinstance(other, (int, Fraction)):
        return LaurentPoly({0: Fraction(other)})
    return NotImplemented


def old_add(a, b):
    b = _old_coerce(b)
    if b is NotImplemented:
        return NotImplemented
    t = dict(a.terms)
    for e, c in b.terms.items():
        t[e] = t.get(e, Fraction(0)) + c
    return LaurentPoly(t)


def old_neg(a):
    return LaurentPoly({e: -c for e, c in a.terms.items()})


def old_sub(a, b):
    b = _old_coerce(b)
    if b is NotImplemented:
        return NotImplemented
    return old_add(a, old_neg(b))


def old_rsub(a, b):
    return old_add(old_neg(a), b)


def old_mul(a, b):
    b = _old_coerce(b)
    if b is NotImplemented:
        return NotImplemented
    t = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            t[e1 + e2] = t.get(e1 + e2, Fraction(0)) + c1 * c2
    return LaurentPoly(t)


def old_inverse(a):
    if len(a.terms) != 1:
        raise NotAUnit("Laurent polynomial with %d terms is not a unit" % len(a.terms))
    ((e, c),) = a.terms.items()
    return LaurentPoly({-e: Fraction(1) / c})


def old_pow(a, k):
    if k < 0:
        return old_pow(old_inverse(a), -k)
    out = LaurentPoly({0: Fraction(1)})
    while k:
        if k & 1:
            out = old_mul(out, a)
        a = old_mul(a, a)
        k >>= 1
    return out


def old_divexact(a, b):
    if not b.terms:
        raise ZeroDivisionError
    if not a.terms:
        return LaurentPoly()
    lo_s, lo_o = min(a.terms), min(b.terms)
    num = {e - lo_s: c for e, c in a.terms.items()}
    den = {e - lo_o: c for e, c in b.terms.items()}
    dden = max(den)
    quot = {}
    while num:
        dnum = max(num)
        if dnum < dden:
            raise NotAUnit("not divisible")
        k = dnum - dden
        f = num[dnum] / den[dden]
        quot[k] = f
        for e, c in den.items():
            num[e + k] = num.get(e + k, Fraction(0)) - f * c
            if not num[e + k]:
                del num[e + k]
    return LaurentPoly({e + lo_s - lo_o: c for e, c in quot.items()})


def old_eq(a, b):
    b = _old_coerce(b)
    if b is NotImplemented:
        return NotImplemented
    return a.terms == b.terms


_ORACLE_METHODS = {
    "__add__": old_add, "__radd__": old_add, "__sub__": old_sub, "__rsub__": old_rsub,
    "__mul__": old_mul, "__rmul__": old_mul, "__neg__": old_neg, "__pow__": old_pow,
    "inverse": old_inverse, "divexact": old_divexact, "__eq__": old_eq,
    "const": staticmethod(lambda c: LaurentPoly({0: Fraction(c)})),
    "gen": staticmethod(lambda: LaurentPoly({1: Fraction(1)})),
    "monomial": staticmethod(lambda e, c=1: LaurentPoly({e: Fraction(c)})),
}

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)
_exponents = st.integers(-4, 4)
_coefficients = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
# term lists may repeat exponents and hold zeros; they normalise to zero,
# monomials and longer sums
_term_lists = st.lists(st.tuples(_exponents, _coefficients), max_size=6)
_polys = st.one_of(_term_lists.map(LaurentPoly),
                   st.builds(LaurentPoly.monomial, _exponents, _coefficients))
_scalars = st.one_of(st.integers(-3, 3), _coefficients)


@st.composite
def _operand_pairs(draw):
    """(a, b) where b is free, or built so that a + b or a - b cancels terms."""
    a, c = draw(_polys), draw(_polys)
    b = draw(st.sampled_from((c, old_sub(c, a), old_add(a, c), a, old_neg(a))))
    return a, b


def _assert_clean(p):
    assert type(p) is LaurentPoly
    for e, c in p.terms.items():
        assert type(e) is int and type(c) is Fraction and c != 0


def _assert_same(got, want):
    _assert_clean(got)
    assert got.terms == want.terms


@_PROPERTY
@given(_operand_pairs(), _scalars)
def test_laurent_kernel_matches_normalising_oracle(pair, s):
    a, b = pair
    before = (dict(a.terms), dict(b.terms))
    _assert_same(a + b, old_add(a, b))
    _assert_same(a - b, old_sub(a, b))
    _assert_same(a * b, old_mul(a, b))
    _assert_same(-a, old_neg(a))
    _assert_same(a + s, old_add(a, s))
    _assert_same(s + a, old_add(a, s))
    _assert_same(a - s, old_sub(a, s))
    _assert_same(s - a, old_rsub(a, s))
    _assert_same(a * s, old_mul(a, s))
    _assert_same(s * a, old_mul(a, s))
    assert (a == b) == old_eq(a, b) and (a == s) == old_eq(a, s)
    assert (dict(a.terms), dict(b.terms)) == before


def _outcome(f, *args):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args)
    except (NotAUnit, ZeroDivisionError) as exc:
        return type(exc)


@_PROPERTY
@given(_operand_pairs(), st.integers(-3, 4))
def test_laurent_powers_and_division_match_normalising_oracle(pair, k):
    a, b = pair
    before = (dict(a.terms), dict(b.terms))
    cases = [(LaurentPoly.__pow__, old_pow, (a, k)),
             (LaurentPoly.inverse, old_inverse, (a,)),
             (LaurentPoly.divexact, old_divexact, (a, b)),
             (LaurentPoly.divexact, old_divexact, (old_mul(a, b), b))]
    for new, old, args in cases:
        got, want = _outcome(new, *args), _outcome(old, *args)
        if isinstance(want, LaurentPoly):
            _assert_same(got, want)
        else:
            assert got is want
    assert (dict(a.terms), dict(b.terms)) == before


@_PROPERTY
@given(_operand_pairs(), _scalars)
def test_laurent_equal_values_hash_equal(pair, s):
    a, b = pair
    for x, y in ((a, b), (a, a * 1), (LaurentPoly.const(s), s), (a, s)):
        if x == y:
            assert hash(x) == hash(y)
    assert len({LaurentPoly.const(s), s, Fraction(s)}) == 1


def test_laurent_constants_hash_as_their_value():
    assert len({LaurentPoly.const(2), 2}) == 1
    assert len({LaurentPoly(), 0, Fraction(0)}) == 1
    assert hash(LaurentPoly.const(Fraction(1, 2))) == hash(Fraction(1, 2))


@_PROPERTY
@given(_term_lists)
def test_laurent_public_constructor_normalises(pairs):
    want = {}
    for e, c in pairs:
        want[e] = want.get(e, 0) + c
    want = {e: c for e, c in want.items() if c}
    from_pairs = LaurentPoly(pairs)
    _assert_clean(from_pairs)
    assert from_pairs.terms == want
    # outside input: string exponents and coefficients are coerced
    _assert_same(LaurentPoly([(str(e), str(c)) for e, c in pairs]), from_pairs)
    given_dict = dict(pairs)
    p = LaurentPoly(given_dict)
    _assert_clean(p)
    assert p.terms is not given_dict
    given_dict[99] = Fraction(1)
    assert 99 not in p.terms


@pytest.mark.parametrize("N,n", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3)])
def test_bmw_check_matches_normalising_oracle(N, n, monkeypatch):
    want = bmw_check(N, n).to_json()
    for name, f in _ORACLE_METHODS.items():
        monkeypatch.setattr(LaurentPoly, name, f)
    new_mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "scale", dense_scale)
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: dense_wperm_product(a, b)
                        if isinstance(b, WeightedPerm) else new_mul(a, b))
    assert bmw_check(N, n).to_json() == want


# ---------------------------------------------------------------------------
# Ring axioms of ZmInt, at composite and prime moduli, against integer
# arithmetic mod m.

@st.composite
def _residue_triples(draw):
    m = draw(st.sampled_from((2, 4, 6, 9, 12, 3, 7, 13, 101)))
    raw = draw(st.lists(st.integers(-5 * m, 5 * m), min_size=3, max_size=3))
    return m, raw, [ZmInt(r, m) for r in raw]


@_PROPERTY
@given(_residue_triples(), st.integers(-20, 20))
def test_zmint_ring_axioms(triple, k):
    m, raw, (a, b, c) = triple
    zero, one = ZmInt(0, m), ZmInt(1, m)
    assert [x.residue for x in (a, b, c)] == [r % m for r in raw]
    assert (a + b).residue == (raw[0] + raw[1]) % m
    assert (a - b).residue == (raw[0] - raw[1]) % m
    assert (a * b).residue == (raw[0] * raw[1]) % m
    assert (-a).residue == -raw[0] % m
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero and a + (-a) == zero
    assert a - b == a + (-b)
    assert a + k == k + a == a + ZmInt(k, m) and a * k == k * a == a * ZmInt(k, m)
    assert a - k == a - ZmInt(k, m) and k - a == ZmInt(k, m) - a
    assert bool(a) == (raw[0] % m != 0)
    ring = IntegersMod(m)
    assert is_field(ring) == (m in (2, 3, 7, 13, 101))
    if math.gcd(raw[0], m) == 1:
        assert ring.is_unit(a)
        inv = mod_inverse(a)
        assert inv * a == one and ring.inv(a) == inv
        assert inv in unit_group(m)
    else:
        assert not ring.is_unit(a)
        with pytest.raises(NotAUnit):
            mod_inverse(a)
        with pytest.raises(NotAUnit):
            ring.inv(a)
