"""The affine mod-m representation family: stochastic images, affine normal
form, exhaustive image closure, surjectivity prediction and the quantum
double cross-check.

The braid generator maps to a block placement of M = [[0, 1], [t, 1-t]]
and the symmetry generator to the corresponding placement of the plain
transposition block; every image is an n x n row-stochastic matrix over
Z_m, i.e. an element of the affine group AGL_{n-1}(Z_m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .braided import affine_bvs, swap_operator
from .errors import CapExceeded, InvalidParameters, NotStochastic
from .linalg import Matrix, WeightedPerm
from .rings import IntegersMod, ZmInt, subgroup_generated, unit_group


@dataclass(frozen=True)
class AffineParams:
    m: int
    t: int
    n: int

    def __post_init__(self):
        if self.m < 2:
            raise InvalidParameters("m must be at least 2, got %d" % self.m)
        if self.n < 2:
            raise InvalidParameters("n must be at least 2, got %d" % self.n)
        if math.gcd(self.m, self.t) != 1:
            raise InvalidParameters("t = %d must be a unit mod m = %d" % (self.t, self.m))
        if self.t % self.m == 1:
            raise InvalidParameters("t = %d is 1 mod m = %d, the diagonalizable case"
                                    % (self.t, self.m))

    @property
    def ring(self):
        return IntegersMod(self.m)


def _block_placed(ring, n, i, block):
    rows = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
    for r in range(2):
        for c in range(2):
            rows[i - 1 + r][i - 1 + c] = ring.from_int(block[r][c])
    return Matrix(ring, rows)


def rho_generators(p: AffineParams) -> dict:
    """Images of sigma_i and s_i as stochastic matrices over Z_m.

    Evaluating the sigma block at t = 1 gives the s block.
    """
    ring = p.ring
    mblock = [[0, 1], [p.t, 1 - p.t]]
    pblock = [[0, 1], [1, 0]]
    images = {}
    for i in range(1, p.n):
        images[("sigma", i)] = _block_placed(ring, p.n, i, mblock)
        images[("s", i)] = _block_placed(ring, p.n, i, pblock)
    return images


def is_row_stochastic(g: Matrix) -> bool:
    ring = g.ring
    for r in g.rows:
        acc = ring.zero
        for v in r:
            acc = acc + v
        if acc != ring.one:
            return False
    return True


@dataclass(frozen=True)
class AglElement:
    """g(A, v) = [[A, v], [0, 1]] with the rule (A1,v1)(A2,v2) = (A1 A2, A1 v2 + v1)."""

    A: tuple   # k x k entries, row major, ints mod m
    v: tuple   # length k
    m: int

    @property
    def k(self):
        return len(self.v)

    def __mul__(self, other):
        assert self.m == other.m and self.k == other.k
        k, m = self.k, self.m
        a1 = self.A
        a2 = other.A
        prod = tuple((sum(a1[r * k + i] * a2[i * k + c] for i in range(k))) % m
                     for r in range(k) for c in range(k))
        vec = tuple((sum(a1[r * k + i] * other.v[i] for i in range(k)) + self.v[r]) % m
                    for r in range(k))
        return AglElement(prod, vec, m)

    def to_matrix(self) -> Matrix:
        ring = IntegersMod(self.m)
        k = self.k
        rows = []
        for r in range(k):
            rows.append([ring.from_int(self.A[r * k + c]) for c in range(k)]
                        + [ring.from_int(self.v[r])])
        rows.append([ring.zero] * k + [ring.one])
        return Matrix(ring, rows)


def _basis_change(ring, n) -> Matrix:
    # columns (1,..,1), (0,1,..,1), ..., (0,..,0,1)
    return Matrix(ring, [[ring.one if r >= c else ring.zero for c in range(n)]
                         for r in range(n)])


def to_agl_form(g: Matrix) -> AglElement:
    """Transpose, then rewrite in the basis (1,..,1), (0,1,..,1), ...; the
    result has last row (0,..,0,1) and is returned as g(A, v)."""
    if not is_row_stochastic(g):
        raise NotStochastic("row sums are not 1")
    ring = g.ring
    n = g.nrows
    b = _basis_change(ring, n)
    h = b * g.transpose() * b.inverse()
    last = h.rows[n - 1]
    if any(last[c] != (ring.one if c == n - 1 else ring.zero) for c in range(n)):
        raise NotStochastic("conjugated transpose is not in affine form")
    k = n - 1
    a = tuple(h.rows[r][c].residue for r in range(k) for c in range(k))
    v = tuple(h.rows[r][k].residue for r in range(k))
    return AglElement(a, v, ring.m)


def from_agl_form(el: AglElement) -> Matrix:
    """Inverse of to_agl_form; round-trips exactly."""
    h = el.to_matrix()
    ring = h.ring
    b = _basis_change(ring, el.k + 1)
    return (b.inverse() * h * b).transpose()


@dataclass
class ImageResult:
    order: int
    complete: bool
    elements: list | None = None
    determinants: frozenset = frozenset()   # residues mod m of the elements found


def _column_update(g: Matrix) -> tuple:
    """Right multiplication by g on a row-major tuple of residues, as
    (destination, ((source, coefficient), ...)) entry updates.

    Only the columns where g differs from the identity are rewritten; a
    generator image is the identity outside two adjacent columns, so a
    product costs O(n) multiply-adds.
    """
    n = g.nrows
    cols = [[v.residue for v in col] for col in zip(*g.rows)]
    return tuple((r * n + c, tuple((r * n + k, v) for k, v in enumerate(col) if v))
                 for r in range(n)
                 for c, col in enumerate(cols)
                 if any(v != int(k == c) for k, v in enumerate(col)))


def generate_image(p: AffineParams, cap: int = 10 ** 7, keep_elements: bool = False,
                   strict: bool = False) -> ImageResult:
    """Breadth-first closure of the generator images under multiplication.

    Elements are row-major tuples of residues mod m.  Expansion multiplies
    the frontier by the 2(n-1) generators and their inverses only, each
    applied as a two-column update; the stored element set behaves as an
    insert-if-absent map from element to its determinant, which is
    det(a) det(g) for a product a g.  Output ordering is lexicographic on
    the residues, independent of the expansion schedule.
    """
    m, n = p.m, p.n
    gens = list(rho_generators(p).values())
    mults = [(_column_update(g), g.det().residue)
             for g in gens + [g.inverse() for g in gens]]
    ident = tuple(int(r == c) for r in range(n) for c in range(n))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            det_a = seen[a]
            for updates, det_g in mults:
                b = list(a)
                for dst, terms in updates:
                    acc = 0
                    for src, v in terms:
                        acc += a[src] * v
                    b[dst] = acc % m
                b = tuple(b)
                if b not in seen:
                    seen[b] = det_a * det_g % m
                    nxt.append(b)
                    if len(seen) > cap:
                        if strict:
                            raise CapExceeded("closure passed cap %d" % cap)
                        return _image_result(p, seen, False, keep_elements)
        frontier = nxt
    return _image_result(p, seen, True, keep_elements)


def _image_result(p, seen, complete, keep_elements):
    elements = None
    if keep_elements:
        ring, n = p.ring, p.n
        elements = [Matrix.from_int_rows(ring, [key[r * n:(r + 1) * n] for r in range(n)])
                    for key in sorted(seen)]
    return ImageResult(len(seen), complete, elements, frozenset(seen.values()))


def gl_order(m: int, k: int) -> int:
    """|GL_k(Z_m)| by prime-power factorization and the CRT product."""
    assert k >= 0
    if k == 0:
        return 1
    order = 1
    mm = m
    d = 2
    while d * d <= mm:
        if mm % d == 0:
            a = 0
            while mm % d == 0:
                mm //= d
                a += 1
            order *= _gl_order_prime_power(d, a, k)
        d += 1
    if mm > 1:
        order *= _gl_order_prime_power(mm, 1, k)
    return order


def _gl_order_prime_power(prime, a, k):
    base = 1
    for i in range(k):
        base *= prime ** k - prime ** i
    return prime ** ((a - 1) * k * k) * base


def agl_order(m: int, k: int) -> int:
    """|AGL_k(Z_m)| = m^k * |GL_k(Z_m)|."""
    assert k >= 1
    return m ** k * gl_order(m, k)


def surjectivity_predicate(m: int, t: int) -> dict:
    """units_ok: t and 1-t are both units; generates: <t, -1> = Z_m^x."""
    assert math.gcd(m, t) == 1
    units_ok = math.gcd(m, (1 - t) % m) == 1
    gens = [t % m, (-1) % m]
    generates = len(subgroup_generated(m, gens)) == len(unit_group(m))
    return {"units_ok": units_ok, "generates": generates}


def determinant_profile(p: AffineParams, elements) -> set:
    """Determinants of the given image elements, as residues mod m."""
    return {ZmInt(g.det().residue, p.m) for g in elements}


def signed_power_set(m: int, t: int) -> set:
    """The subgroup {±t^k} of Z_m^x."""
    return {ZmInt(r, m) for r in subgroup_generated(m, [t % m, (-1) % m])}


# ---------------------------------------------------------------------------
# Proof-word landmarks inside AGL form.

def delta(ring, n, i, j) -> Matrix:
    rows = [[ring.zero] * n for _ in range(n)]
    rows[i - 1][j - 1] = ring.one
    return Matrix(ring, rows)


def proof_word_landmarks(p: AffineParams) -> dict:
    """Landmark identities for the commutator of the last two generators.

    With Sig(t), Sig(1) the affine-form images of the last braid and
    symmetry generators, the word T(t) = Sig(t) Sig(1) Sig(t)^-1 Sig(1)
    lands on I + (1-t)(D_{n-1,n-2} - D_{n-1,n}), and its k-th power at
    k = (1-t)^-1 equals the t = 0 evaluation of the same formula: the
    stepping stones from which elementary matrices, and with them the
    whole affine group, are generated.
    """
    ring = p.ring
    n = p.n
    assert n >= 3, "the landmark words need three strands"
    assert math.gcd(p.m, (1 - p.t) % p.m) == 1
    images = rho_generators(p)
    sig_t = to_agl_form(images[("sigma", n - 1)]).to_matrix()
    sig_1 = to_agl_form(images[("s", n - 1)]).to_matrix()
    t_word = sig_t * sig_1 * sig_t.inverse() * sig_1
    one_minus_t = ring.from_int(1 - p.t)
    expected_t = Matrix.identity(ring, n) + (
        delta(ring, n, n - 1, n - 2) - delta(ring, n, n - 1, n)).scale(one_minus_t)
    k = pow((1 - p.t) % p.m, -1, p.m)
    t_pow = Matrix.identity(ring, n)
    for _ in range(k):
        t_pow = t_pow * t_word
    expected_t0 = Matrix.identity(ring, n) + (
        delta(ring, n, n - 1, n - 2) - delta(ring, n, n - 1, n))
    return {"T": t_word, "T_expected": expected_t, "k": k,
            "T_pow_k": t_pow, "T0_expected": expected_t0,
            "ok": t_word == expected_t and t_pow == expected_t0}


# ---------------------------------------------------------------------------
# Quantum double braiding cross-check.

def drinfeld_r_permutation(m: int, t: int) -> WeightedPerm:
    """The double's braiding on index pairs: (i, j) -> ((1-t) i + t j, i)."""
    from .rings import QQ
    tgt = []
    for i in range(m):
        for j in range(m):
            a = ((1 - t) * i + t * j) % m
            tgt.append(a * m + i)
    return WeightedPerm(QQ, tgt, [QQ.one] * (m * m))


def drinfeld_report(m: int, t: int) -> dict:
    """Compare the double's braiding with the affine braiding.

    The honest identity is conjugation by the tensor-factor swap,
    R = S c S, equivalently R equals the literal matrix transpose of the
    affine braiding at the inverse parameter t^-1.  The literal transpose
    at the same t fails in general and is reported for transparency.
    """
    assert math.gcd(m, t) == 1 and math.gcd(m, (1 - t) % m) == 1
    r_hat = drinfeld_r_permutation(m, t)
    c = affine_bvs(m, t).c
    s = swap_operator(c.ring, m)
    swap_conj = (s * c) * s
    t_inv = pow(t, -1, m)
    c_tinv = affine_bvs(m, t_inv).c
    transpose_at_tinv = c_tinv.to_matrix().transpose()
    literal = c.to_matrix().transpose()
    return {
        "swap_conjugate_equal": r_hat == swap_conj,
        "transpose_at_inverse_t_equal": r_hat.to_matrix() == transpose_at_tinv,
        "literal_transpose_equal": r_hat.to_matrix() == literal,
        "t_inverse": t_inv,
    }


def drinfeld_r_check(m: int, t: int) -> bool:
    """True iff the double's braiding is the factor-transposed affine braiding."""
    rep = drinfeld_report(m, t)
    return rep["swap_conjugate_equal"] and rep["transpose_at_inverse_t_equal"]
