"""Small symmetric group utilities: partitions, hook dimensions, Young
symmetrizers.  Permutations are tuples of 0-based images; composition is
(p o q)(i) = p[q[i]]."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def sign(p):
    seen = [False] * len(p)
    sgn = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sgn = -sgn
    return sgn


def perm_words(k):
    """Each element of S_k with one factorization into adjacent
    transpositions; word letters are 1-based positions i meaning (i, i+1)."""
    ident = tuple(range(k))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(k - 1):
                t = list(range(k))
                t[i], t[i + 1] = t[i + 1], t[i]
                q = compose(p, tuple(t))
                if q not in words:
                    words[q] = words[p] + (i + 1,)
                    nxt.append(q)
        frontier = nxt
    return words


def partitions(k):
    """All partitions of k, parts descending, lexicographically descending."""
    if k == 0:
        return [()]
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, prefix + [part])

    rec(k, k, [])
    return out


def hook_dim(mu) -> int:
    """Dimension of the symmetric group irreducible labelled by mu."""
    k = sum(mu)
    if k == 0:
        return 1
    cols = [0] * mu[0]
    for row in mu:
        for c in range(row):
            cols[c] += 1
    prod = 1
    for i, row in enumerate(mu):
        for j in range(row):
            prod *= (row - j) + (cols[j] - i) - 1
    return math.factorial(k) // prod


def multinomial(n, parts) -> int:
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def young_symmetrizer_coeffs(mu) -> dict:
    """Coefficients of a primitive idempotent of type mu in Q[S_k].

    Uses the row-standard tableau (0..k-1 filled along rows), e =
    (dim/k!) * (row sum) * (signed column sum); e*e = e exactly.
    """
    k = sum(mu)
    if k == 0:
        return {(): Fraction(1)}
    rows = []
    c = 0
    for r in mu:
        rows.append(list(range(c, c + r)))
        c += r
    cols = []
    for j in range(mu[0]):
        col = [row[j] for row in rows if j < len(row)]
        cols.append(col)

    def subgroup(cells_list):
        """All permutations of 0..k-1 preserving each cell set."""
        perms = [tuple(range(k))]
        for cells in cells_list:
            new = []
            for assignment in itertools.permutations(cells):
                move = list(range(k))
                for a, b in zip(cells, assignment):
                    move[a] = b
                for p in perms:
                    new.append(compose(tuple(move), p))
            perms = new
        return perms

    row_group = subgroup(rows)
    col_group = subgroup(cols)
    scale = Fraction(hook_dim(mu), math.factorial(k))
    coeffs = {}
    for p in row_group:
        for q in col_group:
            g = compose(p, q)
            coeffs[g] = coeffs.get(g, Fraction(0)) + scale * sign(q)
    return {g: c for g, c in coeffs.items() if c}
