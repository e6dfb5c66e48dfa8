import math
from fractions import Fraction

from helpers import partitions_max_rows
from loopbraid.symmetric import (compose, hook_dim, inverse, multinomial, partitions,
                                 perm_words, sign, young_symmetrizer_coeffs)


def test_compose_and_inverse():
    p = (1, 2, 0)
    assert compose(p, inverse(p)) == (0, 1, 2)
    q = (1, 0, 2)
    assert compose(p, q) == (2, 1, 0)


def test_sign():
    assert sign((0, 1, 2)) == 1
    assert sign((1, 0, 2)) == -1
    assert sign((1, 2, 0)) == 1


def test_perm_words_cover_group():
    for k in (2, 3, 4):
        words = perm_words(k)
        assert len(words) == math.factorial(k)
        # each word composes back to its permutation
        for perm, word in words.items():
            acc = tuple(range(k))
            for i in word:
                t = list(range(k))
                t[i - 1], t[i] = t[i], t[i - 1]
                acc = compose(acc, tuple(t))
            assert acc == perm


def test_partitions():
    assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions(4)[0] == (4,)
    assert len(partitions(5)) == 7
    assert partitions_max_rows(4, 2) == [(4,), (3, 1), (2, 2)]


def test_hook_dims():
    assert hook_dim((3,)) == 1
    assert hook_dim((1, 1, 1)) == 1
    assert hook_dim((2, 1)) == 2
    assert hook_dim((2, 2)) == 2
    assert hook_dim((3, 1)) == 3
    assert hook_dim((2, 1, 1)) == 3
    # dimensions square-sum to the group order
    for k in (3, 4, 5):
        assert sum(hook_dim(mu) ** 2 for mu in partitions(k)) == math.factorial(k)


def test_multinomial():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(8, (4, 2, 2)) == 420


def test_young_symmetrizer_idempotent():
    for mu in ((2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1)):
        k = sum(mu)
        e = young_symmetrizer_coeffs(mu)
        # convolution square equals itself
        sq = {}
        for g1, c1 in e.items():
            for g2, c2 in e.items():
                g = compose(g1, g2)
                sq[g] = sq.get(g, Fraction(0)) + c1 * c2
        sq = {g: c for g, c in sq.items() if c}
        assert sq == e


def test_young_symmetrizer_signs():
    # trivial type is the uniform average, sign type carries signs
    e_triv = young_symmetrizer_coeffs((2,))
    assert e_triv == {(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}
    e_sign = young_symmetrizer_coeffs((1, 1))
    assert e_sign == {(0, 1): Fraction(1, 2), (1, 0): Fraction(-1, 2)}
