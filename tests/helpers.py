"""Helpers shared by several test files; nothing in the package calls them."""

from loopbraid.affine import AffineParams
from loopbraid.rings import ZmInt


def determinant_profile(p: AffineParams, elements) -> set:
    """Determinants of the given image elements, as residues mod m."""
    return {ZmInt(g.det().residue, p.m) for g in elements}
