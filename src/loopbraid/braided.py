"""Braided vector spaces and local representations on tensor powers.

A braided vector space (BVS) is an invertible solution c on V (x) V of the
Yang-Baxter equation; a loop extension adds an involution S on V (x) V so
that the padded operators satisfy the mixed loop relations.  Right
group-type data yields the LB variant, left group-type data the OLB
variant; when both the braiding and S are diagonal in one basis the images
satisfy the full SLB relation set.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import GroupTypeViolation, InvalidParameters, NotGroupType
from .linalg import Matrix, WeightedPerm, kron_list, require_assembly
from .rings import LQ, QQ, IntegersMod, LaurentPoly, rational_from_str
from .words import check_relations, relations_for


class GroupTypeData:
    __slots__ = ("side", "g")

    def __init__(self, side: str, g: list):
        if side not in ("left", "right"):
            raise InvalidParameters("group-type side must be left or right, got %r"
                                    % (side,))
        d = len(g)
        if d == 0 or any(m.nrows != d or any(len(r) != d for r in m.rows) for m in g):
            raise InvalidParameters("group-type data needs d >= 1 matrices of size d x d")
        self.side = side   # "left" or "right"
        self.g = g         # d invertible d x d matrices in the standard basis

    @property
    def d(self):
        return len(self.g)


class BVS:
    """Invertible operator c on V (x) V, with optional group-type data."""

    def __init__(self, d, c, group_type=None, name=""):
        self.d = d
        self.c = c
        self.ring = c.ring
        self.group_type = group_type
        self.name = name
        self._ybe = None

    def c_inverse(self):
        return self.c.inverse()

    def yang_baxter(self) -> bool:
        if self._ybe is None:
            self._ybe = check_yang_baxter(self)
        return self._ybe

    def to_json(self):
        data = {"d": self.d, "ring": self.ring.name,
                "c": (self.c.to_matrix() if isinstance(self.c, WeightedPerm) else self.c).to_json()}
        if self.group_type is not None:
            data["group_type"] = {"side": self.group_type.side,
                                  "g": [m.to_json() for m in self.group_type.g]}
        return data


class LoopBVS:
    __slots__ = ("base", "S", "variant")

    def __init__(self, base: BVS, S, variant: str):
        self.base = base
        self.S = S               # operator on V (x) V with S^2 = Id
        self.variant = variant   # the relation set the padded images satisfy


def _pad(op, d, i, n, ident1):
    """Id^(i-1) (x) op (x) Id^(n-i-1) acting on V^n."""
    factors = []
    if i > 1:
        factors.append(_identity_power(ident1, i - 1))
    factors.append(op)
    if n - i - 1 > 0:
        factors.append(_identity_power(ident1, n - i - 1))
    return kron_list(factors)


def _identity_power(ident1, k):
    out = ident1
    for _ in range(k - 1):
        out = out.kron(ident1)
    return out


def _identity_on_v(b: BVS):
    if isinstance(b.c, WeightedPerm):
        return WeightedPerm.identity(b.ring, b.d)
    return Matrix.identity(b.ring, b.d)


def check_yang_baxter(b: BVS) -> bool:
    """Exact equality of the two triple products on V^3."""
    ident = _identity_on_v(b)
    c12 = b.c.kron(ident)
    c23 = ident.kron(b.c)
    return c12 * (c23 * c12) == c23 * (c12 * c23)


def bvs_from_group_type(data: GroupTypeData) -> BVS:
    """Assemble c from group-type operators, verifying the compatibility
    equation on every (i, j, k) with a nonzero structure coefficient.

    Left side:  c(x_i (x) z) = g_i(z) (x) x_i, valid iff
    g_i^{j,k} != 0 implies g_i g_j = g_k g_i.  Right side is the mirror
    statement with h_j h_i = h_k h_j.
    """
    d = data.d
    ring = data.g[0].ring
    for gm in data.g:
        gm.inverse()  # raises SingularImage if not invertible
    prods = {}

    def prod(a, bdx):
        if (a, bdx) not in prods:
            prods[(a, bdx)] = data.g[a] * data.g[bdx]
        return prods[(a, bdx)]

    for i in range(d):
        for j in range(d):
            for k in range(d):
                coeff = data.g[i].rows[k][j] if data.side == "left" else data.g[j].rows[k][i]
                if coeff == ring.zero:
                    continue
                if data.side == "left":
                    if prod(i, j) != prod(k, i):
                        raise GroupTypeViolation((i + 1, j + 1, k + 1))
                else:
                    if prod(j, i) != prod(k, j):
                        raise GroupTypeViolation((i + 1, j + 1, k + 1))

    c = Matrix.zeros(ring, d * d, d * d)
    for i in range(d):
        for j in range(d):
            col = i * d + j
            if data.side == "left":
                # c(x_i (x) x_j) = sum_k g_i[k,j] x_k (x) x_i
                for k in range(d):
                    v = data.g[i].rows[k][j]
                    if v != ring.zero:
                        c.rows[k * d + i][col] = v
            else:
                # c(x_i (x) x_j) = sum_k g_j[k,i] x_j (x) x_k
                for k in range(d):
                    v = data.g[j].rows[k][i]
                    if v != ring.zero:
                        c.rows[j * d + k][col] = v
    c = _as_weighted_perm_if_possible(c)
    return BVS(d, c, group_type=data)


def _as_weighted_perm_if_possible(m: Matrix):
    ring = m.ring
    tgt, wts = [], []
    for j in range(m.ncols):
        hits = [(i, m.rows[i][j]) for i in range(m.nrows) if m.rows[i][j] != ring.zero]
        if len(hits) != 1:
            return m
        tgt.append(hits[0][0])
        wts.append(hits[0][1])
    if len(set(tgt)) != len(tgt):
        return m
    return WeightedPerm(ring, tgt, wts)


def is_diagonalizable_group_type(data: GroupTypeData) -> bool:
    """A group-type BVS is of both handednesses iff the operators pairwise
    commute (they are then simultaneously diagonalizable)."""
    for i in range(data.d):
        for j in range(i + 1, data.d):
            if data.g[i] * data.g[j] != data.g[j] * data.g[i]:
                return False
    return True


def swap_operator(ring, d):
    """S(x_i (x) x_j) = x_j (x) x_i as a weighted permutation."""
    tgt = [j * d + i for i in range(d) for j in range(d)]
    return WeightedPerm(ring, tgt, [ring.one] * (d * d))


def signed_swap_operator(ring, d):
    """Swap with sign -1 off the diagonal pairs; squares to the identity."""
    tgt, wts = [], []
    for i in range(d):
        for j in range(d):
            tgt.append(j * d + i)
            wts.append(ring.one if i == j else -ring.one)
    return WeightedPerm(ring, tgt, wts)


def extend_to_loop(b: BVS, side=None, S=None) -> LoopBVS:
    """Attach the (plain) swap S and certify the loop relations at n = 3.

    Right group-type data yields the LB relation set, left group-type the
    OLB set.  An explicit diagonal S (e.g. the signed swap) may be passed;
    if both c and S are diagonal the SLB set is certified instead.
    """
    if b.group_type is None:
        raise NotGroupType("BVS carries no group-type data")
    side = side or b.group_type.side
    if side != b.group_type.side:
        raise NotGroupType("BVS is of %s type, not %s" % (b.group_type.side, side))
    if S is None:
        S = swap_operator(b.ring, b.d)
    s2 = S * S
    if not s2.is_identity():
        raise NotGroupType("S^2 != Id")
    diagonal = is_diagonalizable_group_type(b.group_type) and _is_diagonal_type(S, b.d)
    variant = "SLB" if diagonal else ("LB" if side == "right" else "OLB")
    lb = LoopBVS(b, S, variant)
    report = check_relations(local_rep(lb, 3), relations_for(3, variant))
    if not report.ok:
        raise NotGroupType("loop relations %s fail at n=3: %s"
                           % (variant, report.failed_labels()))
    return lb


def _is_diagonal_type(S, d):
    if not isinstance(S, WeightedPerm):
        return False
    return all(S.tgt[i * d + j] == j * d + i for i in range(d) for j in range(d))


def local_rep(lb: LoopBVS, n: int) -> dict:
    """Images sigma_i -> Id^(i-1) (x) c (x) Id^(n-i-1), s_i -> same with S."""
    if n < 2:
        raise InvalidParameters("a local representation needs at least 2 strands, got %d" % n)
    b = lb.base
    if not isinstance(b.c, WeightedPerm):
        require_assembly(b.d ** n)
    ident = _identity_on_v(b)
    images = {}
    for i in range(1, n):
        images[("sigma", i)] = _pad(b.c, b.d, i, n, ident)
        images[("s", i)] = _pad(lb.S, b.d, i, n, ident)
    return images


# ---------------------------------------------------------------------------
# Stock braided vector spaces.

def swap_bvs(d, ring=QQ) -> BVS:
    if d < 1:
        raise InvalidParameters("dimension must be at least 1, got %d" % d)
    gt = GroupTypeData("right", [Matrix.identity(ring, d) for _ in range(d)])
    b = bvs_from_group_type(gt)
    b.name = "swap"
    return b


def affine_bvs(m: int, t: int) -> BVS:
    """Right group-type braiding on indices mod m: h_j(i) = t*i + (1-t)*j.

    Needs gcd(m, t) = 1; the braiding is a permutation matrix on the m^2
    tensor basis vectors (basis x_0 .. x_{m-1} indexed mod m).
    """
    import math
    if m < 2:
        raise InvalidParameters("m must be at least 2, got %d" % m)
    if math.gcd(m, t) != 1:
        raise InvalidParameters("t = %d must be a unit mod m = %d" % (t, m))
    g = []
    for j in range(m):
        rows = [[QQ.zero] * m for _ in range(m)]
        for i in range(m):
            rows[(t * i + (1 - t) * j) % m][i] = QQ.one
        g.append(Matrix(QQ, rows))
    b = bvs_from_group_type(GroupTypeData("right", g))
    b.name = "affine(%d,%d)" % (m, t)
    return b


def affine_loop(m: int, t: int) -> LoopBVS:
    return extend_to_loop(affine_bvs(m, t))


def diagonal_bvs(N: int, x, form="x") -> BVS:
    """Diagonal braiding behind the tensor color representations.

    x-form: weight x on equal colors, 1 on a swap; q-form: weight q on
    equal colors, 1/q on a swap (set x = q^2 to match after rescaling).
    x = None means x = 2 in x-form and the Laurent variable q in q-form.
    """
    if N < 1:
        raise InvalidParameters("N must be at least 1, got %d" % N)
    if form == "x":
        ring = QQ
        x = Fraction(2 if x is None else x)
        if x == 0:
            raise InvalidParameters("x must be nonzero (the braiding is singular at x = 0)")
        eq_w, sw_w = x, ring.one
    else:
        ring = LQ
        qv = LaurentPoly.gen() if x is None else x
        eq_w, sw_w = qv, qv.inverse()
    g = []
    for i in range(N):
        rows = [[ring.zero] * N for _ in range(N)]
        for j in range(N):
            rows[j][j] = eq_w if i == j else sw_w
        g.append(Matrix(ring, rows))
    # left and right data coincide for diagonal type; ship as right
    b = bvs_from_group_type(GroupTypeData("right", g))
    b.name = "diagonal-tau(N=%d,%s)" % (N, form)
    return b


def tau_loop(N: int, x=None, form="x") -> LoopBVS:
    """The diagonal braiding together with the signed swap; satisfies SLB."""
    b = diagonal_bvs(N, x, form)
    S = signed_swap_operator(b.ring, N)
    return extend_to_loop(b, S=S)


def c2_hecke(qval=None, alt=False) -> BVS:
    """The 4x4 Hecke braiding on V (x) V for a 2-dimensional V.

    Two normalizations are shipped; neither is treated as canonical.  Pass
    a rational qval to work over the rationals, or None for the formal
    Laurent variable q.
    """
    if qval is None:
        ring = LQ
        q = LaurentPoly.gen()
        qi = q.inverse()
    else:
        ring = QQ
        q = Fraction(qval)
        if q == 0:
            raise InvalidParameters("q must be nonzero (the braiding has q^-1 entries)")
        qi = Fraction(1) / q
    one = ring.one
    z = ring.zero
    if not alt:
        rows = [[q, z, z, z],
                [z, q - qi, -one, z],
                [z, -one, z, z],
                [z, z, z, q]]
    else:
        rows = [[-qi, z, z, z],
                [z, q - qi, one, z],
                [z, one, z, z],
                [z, z, z, -qi]]
    b = BVS(2, Matrix(ring, rows))
    b.name = "c2-hecke" + ("-alt" if alt else "")
    return b


def bvs_from_json(data) -> BVS:
    """The BVS that to_json wrote; ring is "rational", "laurent" or
    "zm:<m>"."""
    d, c_rows = data["d"], data["c"]
    if type(d) is not int or d < 1:
        raise InvalidParameters("d must be a positive integer, got %r" % (d,))
    if len(c_rows) != d * d or any(len(row) != d * d for row in c_rows):
        raise InvalidParameters("c must be a %d x %d matrix for d = %d" % (d * d, d * d, d))
    ring_name = data["ring"]
    if ring_name == "rational":
        ring = QQ
        parse = rational_from_str
    elif ring_name == "laurent":
        ring = LQ
        parse = LaurentPoly.from_json
    elif isinstance(ring_name, str) and re.fullmatch(r"zm:[0-9]+", ring_name):
        ring = IntegersMod(int(ring_name[3:]))
        parse = ring.from_int
    else:
        raise InvalidParameters("unknown ring %r (expected rational, laurent or zm:<m>)"
                                % (ring_name,))
    c = Matrix(ring, [[parse(v) for v in row] for row in c_rows])
    gt = None
    if "group_type" in data:
        gt = GroupTypeData(data["group_type"]["side"],
                           [Matrix(ring, [[parse(v) for v in row] for row in g])
                            for g in data["group_type"]["g"]])
    return BVS(d, _as_weighted_perm_if_possible(c), group_type=gt)
