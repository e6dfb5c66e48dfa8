"""Helpers shared by several test files; nothing in the package calls them."""

from loopbraid.affine import AffineParams
from loopbraid.linalg import Matrix
from loopbraid.rings import ZmInt, is_probable_prime


def determinant_profile(p: AffineParams, elements) -> set:
    """Determinants of the given image elements, as residues mod m."""
    return {ZmInt(g.det().residue, p.m) for g in elements}


def dense_scale(mat, c):
    """Matrix.scale entry by entry, zeros included."""
    return Matrix(mat.ring, [[c * a for a in r] for r in mat.rows])


def dense_wperm_product(mat, wp):
    """Matrix * WeightedPerm entry by entry: column j is wts[j] times
    column tgt[j] of mat, zeros included."""
    return Matrix(mat.ring, [[wp.wts[j] * r[wp.tgt[j]] for j in range(wp.n)]
                             for r in mat.rows])


def random_prime_above_2_30(rng) -> int:
    """A random prime > 2**30, for use as a Monte Carlo rank modulus."""
    while True:
        n = rng.randrange(2 ** 30 + 1, 2 ** 31) | 1
        if is_probable_prime(n):
            return n
