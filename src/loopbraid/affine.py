"""The affine mod-m representation family: stochastic images, affine normal
form, the image order and elements from a stabilizer chain, surjectivity
prediction and the quantum double cross-check.

The braid generator maps to a block placement of M = [[0, 1], [t, 1-t]]
and the symmetry generator to the corresponding placement of the plain
transposition block; every image is an n x n row-stochastic matrix over
Z_m, i.e. an element of the affine group AGL_{n-1}(Z_m).

The image order and determinants work on the int blocks and int
permutations alone; linalg and braided are imported by the functions that
build a Matrix, a WeightedPerm or a BVS.
"""

from __future__ import annotations

import itertools
import math

from .errors import InvalidParameters, NotStochastic
from .modular import IntegersMod, ZmInt, subgroup_generated, unit_group


class AffineParams:
    """Modulus m, braid weight t and strand count n; compared and hashed by value."""

    __slots__ = ("m", "t", "n")

    def __init__(self, m: int, t: int, n: int):
        if m < 2:
            raise InvalidParameters("m must be at least 2, got %d" % m)
        if n < 2:
            raise InvalidParameters("n must be at least 2, got %d" % n)
        if math.gcd(m, t) != 1:
            raise InvalidParameters("t = %d must be a unit mod m = %d" % (t, m))
        if t % m == 1:
            raise InvalidParameters("t = %d is 1 mod m = %d, the diagonalizable case"
                                    % (t, m))
        self.m = m
        self.t = t
        self.n = n

    def _key(self):
        return self.m, self.t, self.n

    def __eq__(self, other):
        if other.__class__ is not AffineParams:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def ring(self):
        return IntegersMod(self.m)


def _generator_blocks(p: AffineParams) -> dict:
    """The int 2 x 2 block of each generator image, keyed ("sigma", i) and
    ("s", i) as rho_generators is; the image is the identity with the
    block at rows and columns i, i + 1.

    Evaluating the sigma block at t = 1 gives the s block.
    """
    mblock = ((0, 1), (p.t, 1 - p.t))
    pblock = ((0, 1), (1, 0))
    blocks = {}
    for i in range(1, p.n):
        blocks[("sigma", i)] = mblock
        blocks[("s", i)] = pblock
    return blocks


def _block_placed(ring, n, i, block):
    from .linalg import Matrix
    rows = [[ring.one if r == c else ring.zero for c in range(n)] for r in range(n)]
    for r in range(2):
        for c in range(2):
            rows[i - 1 + r][i - 1 + c] = ring.from_int(block[r][c])
    return Matrix(ring, rows)


def rho_generators(p: AffineParams) -> dict:
    """Images of sigma_i and s_i as stochastic matrices over Z_m."""
    ring = p.ring
    return {key: _block_placed(ring, p.n, key[1], block)
            for key, block in _generator_blocks(p).items()}


def is_row_stochastic(g: Matrix) -> bool:
    ring = g.ring
    for r in g.rows:
        acc = ring.zero
        for v in r:
            acc = acc + v
        if acc != ring.one:
            return False
    return True


class AglElement:
    """g(A, v) = [[A, v], [0, 1]] with the rule (A1,v1)(A2,v2) = (A1 A2, A1 v2 + v1);
    compared and hashed by value."""

    __slots__ = ("A", "v", "m")

    def __init__(self, A: tuple, v: tuple, m: int):
        self.A = A   # k x k entries, row major, ints mod m
        self.v = v   # length k
        self.m = m

    def _key(self):
        return self.A, self.v, self.m

    def __eq__(self, other):
        if other.__class__ is not AglElement:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def k(self):
        return len(self.v)

    def __mul__(self, other):
        if (self.m, self.k) != (other.m, other.k):
            raise InvalidParameters("AGL elements of different modulus or rank")
        k, m = self.k, self.m
        a1 = self.A
        a2 = other.A
        prod = tuple((sum(a1[r * k + i] * a2[i * k + c] for i in range(k))) % m
                     for r in range(k) for c in range(k))
        vec = tuple((sum(a1[r * k + i] * other.v[i] for i in range(k)) + self.v[r]) % m
                    for r in range(k))
        return AglElement(prod, vec, m)

    def to_matrix(self) -> Matrix:
        from .linalg import Matrix
        ring = IntegersMod(self.m)
        k = self.k
        rows = []
        for r in range(k):
            rows.append([ring.from_int(self.A[r * k + c]) for c in range(k)]
                        + [ring.from_int(self.v[r])])
        rows.append([ring.zero] * k + [ring.one])
        return Matrix(ring, rows)


def _basis_change(ring, n) -> Matrix:
    from .linalg import Matrix
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


class ImageResult:
    """residues lists each element's n * n residues in row-major order, the
    elements sorted by them; None unless elements were kept and the order
    is at most the cap."""

    __slots__ = ("order", "complete", "residues", "determinants", "_params")

    def __init__(self, order: int, complete: bool, residues: list | None,
                 determinants: frozenset, params: AffineParams):
        self.order = order
        self.complete = complete
        self.residues = residues
        self.determinants = determinants   # generated by the generators' determinants
        self._params = params

    @property
    def elements(self):
        """The kept elements as Matrices over Z_m in the order of residues,
        built on each read; None unless elements were kept."""
        if self.residues is None:
            return None
        from .linalg import Matrix
        ring, n = self._params.ring, self._params.n
        return [Matrix.from_int_rows(ring, [r[i:i + n] for i in range(0, n * n, n)])
                for r in self.residues]


def generate_image(p: AffineParams, cap: int = 10 ** 7,
                   keep_elements: bool = False) -> ImageResult:
    """The image of the generators: its order, its determinant set and,
    with keep_elements, its elements.

    The order comes from a stabilizer chain (_chain_order) on the m^(n-1)
    rows of Z_m^n whose residues sum to 1, on which every image acts by
    right multiplication; the base is the n unit rows, which only the
    identity fixes.  An image changes only the two entries of a row under
    its 2 x 2 block, so each permutation is read off the int block.  The
    determinant set is the subgroup of Z_m^x the generators' determinants,
    a d - b c of each block, generate (det is a homomorphism).  The result
    is complete when the order is at most cap.  With keep_elements and a
    complete order, each element u_{k-1} ... u_0 (one representative u_i
    of each chain level) is listed by its rows, the images of the unit
    rows, and the list is sorted by residues.
    """
    if cap < 1:
        raise InvalidParameters("cap must be at least 1, got %d" % cap)
    m, n = p.m, p.n
    blocks = _generator_blocks(p)
    # the last residue of each such row is fixed by the others; the rows are
    # listed in lexicographic order, so point indices compare as the rows do
    rows = [(*head, (1 - sum(head)) % m) for head in itertools.product(range(m), repeat=n - 1)]
    index = {row: i for i, row in enumerate(rows)}
    perms = []
    for (_, i), ((a, b), (c, d)) in blocks.items():
        # entries i - 1 and i of the row times the block, the others kept
        perms.append(tuple([index[(*row[:i - 1], (row[i - 1] * a + row[i] * c) % m,
                                   (row[i - 1] * b + row[i] * d) % m, *row[i + 1:])]
                            for row in rows]))
    base = [index[tuple(int(c == r) for c in range(n))] for r in range(n)]
    order, levels = _chain_order(perms, base)
    dets = frozenset(subgroup_generated(m, [(a * d - b * c) % m
                                            for (a, b), (c, d) in blocks.values()]))
    complete = order <= cap
    residues = None
    if keep_elements and complete:
        images = [tuple(base)]
        for level in reversed(levels):
            images = [tuple(map(u.__getitem__, x)) for x in images for u in level]
        images.sort()
        residues = [[v for x in image for v in rows[x]] for image in images]
    return ImageResult(order, complete, residues, dets, p)


def _chain_order(perms, base):
    """The order of the group the permutations generate and its transversals,
    from a deterministic Schreier-Sims stabilizer chain along base (Sims
    1970; the procedure is Knuth's, "Efficient representation of perm
    groups", 1991).

    A permutation is a tuple sending point x to perm[x]; a product g h
    applies g first.  Level i holds generators that fix base[:i] and, for
    each point of the orbit of base[i] under them, an element taking
    base[i] there with its inverse.  An element joins the generators of
    level i only when it does not sift through the levels from i on.  Each
    pair of an orbit representative u and a level generator s then either
    reaches a new orbit point, u s becoming its representative, or gives
    the Schreier generator u s v^-1 (v the representative of the point u s
    reaches), which is added to level i + 1 the same way.  By Schreier's
    lemma the generators of level i + 1 then generate the stabilizer of
    base[i] in the group of level i, so the order is the product of the
    orbit lengths, provided only the identity fixes every base point: a
    non-identity element that sifts through every level raises
    InvalidParameters.  Then every element is u_{k-1} ... u_0 for exactly
    one representative u_i of each level i; levels lists each level's
    representatives.
    """
    k = len(base)
    ident = tuple(range(len(perms[0])))
    gens = [[] for _ in range(k)]
    reps = [{b: (ident, ident)} for b in base]  # orbit point -> (u, u^-1)

    def add(i, g):
        h, j = g, i
        while j < k:
            rep = reps[j].get(h[base[j]])
            if rep is None:
                break
            h = tuple(map(rep[1].__getitem__, h))
            j += 1
        if j == k:
            if h != ident:
                raise InvalidParameters("a non-identity element fixes every base point")
            return
        gens[i].append(g)
        level, b = reps[i], base[i]
        todo = [tuple(map(g.__getitem__, u)) for u, _ in level.values()]
        while todo:
            h = todo.pop()
            rep = level.get(h[b])
            if rep is None:
                level[h[b]] = (h, _perm_inverse(h))
                todo.extend(tuple(map(s.__getitem__, h)) for s in gens[i])
            else:
                add(i + 1, tuple(map(rep[1].__getitem__, h)))

    for g in perms:
        add(0, g)
    levels = [[u for u, _ in level.values()] for level in reps]
    return math.prod(map(len, levels)), levels


def _perm_inverse(g):
    inv = [0] * len(g)
    for x, y in enumerate(g):
        inv[y] = x
    return tuple(inv)


def gl_order(m: int, k: int) -> int:
    """|GL_k(Z_m)| by prime-power factorization and the CRT product."""
    if k < 0:
        raise InvalidParameters("matrix size must be at least 0, got %d" % k)
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
    if k < 1:
        raise InvalidParameters("affine dimension must be at least 1, got %d" % k)
    return m ** k * gl_order(m, k)


def surjectivity_predicate(m: int, t: int) -> dict:
    """units_ok: t and 1-t are both units; generates: <t, -1> = Z_m^x."""
    if math.gcd(m, t) != 1:
        raise InvalidParameters("t = %d is not a unit mod %d" % (t, m))
    units_ok = math.gcd(m, (1 - t) % m) == 1
    gens = [t % m, (-1) % m]
    generates = len(subgroup_generated(m, gens)) == len(unit_group(m))
    return {"units_ok": units_ok, "generates": generates}


def signed_power_set(m: int, t: int) -> set:
    """The subgroup {±t^k} of Z_m^x."""
    return {ZmInt(r, m) for r in subgroup_generated(m, [t % m, (-1) % m])}


# ---------------------------------------------------------------------------
# Quantum double braiding cross-check.

def drinfeld_r_permutation(m: int, t: int) -> WeightedPerm:
    """The double's braiding on index pairs: (i, j) -> ((1-t) i + t j, i)."""
    from .linalg import WeightedPerm
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
    from .braided import affine_bvs, swap_operator
    if math.gcd(m, t) != 1 or math.gcd(m, (1 - t) % m) != 1:
        raise InvalidParameters("t = %d and 1 - t must be units mod m = %d" % (t, m))
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
