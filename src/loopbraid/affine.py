"""The affine mod-m representation family: stochastic images, affine normal
form, the image order and elements from a stabilizer chain, surjectivity
prediction and the quantum double cross-check.

The braid generator maps to a block placement of M = [[0, 1], [t, 1-t]]
and the symmetry generator to the corresponding placement of the plain
transposition block; every image is an n x n row-stochastic matrix over
Z_m, i.e. an element of the affine group AGL_{n-1}(Z_m).
"""

from __future__ import annotations

import itertools
import math

from .braided import affine_bvs, swap_operator
from .errors import InvalidParameters, NotStochastic
from .linalg import Matrix, WeightedPerm
from .rings import IntegersMod, ZmInt, subgroup_generated, unit_group


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
    identity fixes.  The determinant set is the subgroup of Z_m^x the
    generators' determinants generate (det is a homomorphism).  The result
    is complete when the order is at most cap.  With keep_elements and a
    complete order, each element u_{k-1} ... u_0 (one representative u_i
    of each chain level) is listed by its rows, the images of the unit
    rows, and the list is sorted by residues.
    """
    if cap < 1:
        raise InvalidParameters("cap must be at least 1, got %d" % cap)
    m, n = p.m, p.n
    gens = list(rho_generators(p).values())
    # the last residue of each such row is fixed by the others; the rows are
    # listed in lexicographic order, so point indices compare as the rows do
    rows = [(*head, (1 - sum(head)) % m) for head in itertools.product(range(m), repeat=n - 1)]
    index = {row: i for i, row in enumerate(rows)}
    perms = []
    for g in gens:
        cols = [[v.residue for v in col] for col in zip(*g.rows)]
        perms.append(tuple([index[_row_times(row, cols, m)] for row in rows]))
    base = [index[tuple(int(c == r) for c in range(n))] for r in range(n)]
    order, levels = _chain_order(perms, base)
    dets = frozenset(subgroup_generated(m, [g.det().residue for g in gens]))
    complete = order <= cap
    residues = None
    if keep_elements and complete:
        images = [tuple(base)]
        for level in reversed(levels):
            images = [tuple(map(u.__getitem__, x)) for x in images for u in level]
        images.sort()
        residues = [[v for x in image for v in rows[x]] for image in images]
    return ImageResult(order, complete, residues, dets, p)


def _row_times(row, cols, m):
    """The row times the matrix with the given columns, mod m."""
    return tuple(sum(x * y for x, y in zip(row, col)) % m for col in cols)


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
    if n < 3:
        raise InvalidParameters("the landmark words need three strands, got %d" % n)
    if math.gcd(p.m, (1 - p.t) % p.m) != 1:
        raise InvalidParameters("1 - t = %d must be a unit mod m = %d" % (1 - p.t, p.m))
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
