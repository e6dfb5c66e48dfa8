"""Dense matrices over an exact ring, weighted permutations, and elimination.

Three operator representations are used throughout the package:

* ``Matrix`` - dense row-major storage over any ring descriptor;
* ``WeightedPerm`` - an operator with exactly one nonzero entry per column
  (all the braid and symmetry generator images are of this shape), where
  products, inverses, Kronecker products and traces cost O(dimension);
* ``CodedPerm`` - a WeightedPerm whose weights are +-b^k for one base b,
  each weight held as an int code, so that words compose on ints.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import InvalidParameters, NonFieldModulus, SingularImage
from .rings import LQ, QQ, ZZ, IntegersMod, LaurentPoly, _monomial_codes

ASSEMBLY_LIMIT = 10 ** 4  # refuse whole-tensor-power assemblies above this many rows
BLOCK_LIMIT = 10 ** 5  # refuse charge blocks above this many words


def require_assembly(rows):
    """InvalidParameters unless a whole-tensor-power operator of this many
    rows is within ASSEMBLY_LIMIT; beyond it, work in charge blocks."""
    if rows > ASSEMBLY_LIMIT:
        raise InvalidParameters("assembly of %d rows refused (limit %d); use charge blocks"
                                % (rows, ASSEMBLY_LIMIT))


def require_block(words):
    """InvalidParameters unless a charge block of this many words is within
    BLOCK_LIMIT: past it, listing the words alone can exhaust memory."""
    if words > BLOCK_LIMIT:
        raise InvalidParameters("charge block of %d words refused (limit %d)"
                                % (words, BLOCK_LIMIT))


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise InvalidParameters("ragged rows: %s" % [len(r) for r in self.rows])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _wrap(ring, rows):
        """Take ownership of a list of equal-length row lists, as products
        build them; no checks."""
        m = object.__new__(Matrix)
        m.ring = ring
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Matrix(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(ring, r, c):
        z = ring.zero
        return Matrix(ring, [[z] * c for _ in range(r)])

    @staticmethod
    def from_int_rows(ring, rows):
        return Matrix(ring, [[ring.from_int(v) for v in r] for r in rows])

    # -- basics ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.nrows == other.nrows and self.ncols == other.ncols and \
            self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __getitem__(self, rc):
        return self.rows[rc[0]][rc[1]]

    def entries(self):
        """All entries in row-major order, as one list."""
        out = []
        for r in self.rows:
            out.extend(r)
        return out

    def is_zero(self):
        z = self.ring.zero
        return all(v == z for v in self.entries())

    def is_identity(self):
        z, o = self.ring.zero, self.ring.one
        return self.nrows == self.ncols and all(
            self.rows[i][j] == (o if i == j else z)
            for i in range(self.nrows) for j in range(self.ncols))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, WeightedPerm):
            other = other.to_matrix()
        self._require_shape(other)
        # zero entries of either operand add nothing
        return Matrix(self.ring, [[(a + b if a else b) if b else a for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if isinstance(other, WeightedPerm):
            other = other.to_matrix()
        self._require_shape(other)
        # zero entries of either operand subtract nothing
        return Matrix(self.ring, [[(a - b if a else -b) if b else a for a, b in zip(r1, r2)]
                                  for r1, r2 in zip(self.rows, other.rows)])

    def _require_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InvalidParameters("shapes %dx%d and %dx%d differ"
                                    % (self.nrows, self.ncols, other.nrows, other.ncols))

    def __neg__(self):
        return Matrix(self.ring, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        # zero entries stay as they are
        return Matrix(self.ring, [[c * a if a else a for a in r] for r in self.rows])

    def __mul__(self, other):
        inner = other.n if isinstance(other, WeightedPerm) else other.nrows
        if self.ncols != inner:
            raise InvalidParameters("%d columns times %d rows" % (self.ncols, inner))
        if isinstance(other, WeightedPerm):
            # columns of (self*other): column j picks column tgt[j] of self;
            # zero entries stay as they are
            pairs = list(zip(other.tgt, other.wts))
            return Matrix._wrap(self.ring, [[w * a if (a := r[t]) else a for t, w in pairs]
                                            for r in self.rows])
        # only nonzero a[i][k] * b[k][j] terms, summed in increasing k
        z = self.ring.zero
        b_nonzero = [_nonzero(r) for r in other.rows]
        out = []
        for r in self.rows:
            row = [z] * other.ncols
            for k, a in enumerate(r):
                if a:
                    for j, b in b_nonzero[k]:
                        row[j] = row[j] + a * b
            out.append(row)
        return Matrix._wrap(self.ring, out)

    def transpose(self):
        return Matrix(self.ring, [list(c) for c in zip(*self.rows)])

    def trace(self):
        acc = self.ring.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def kron(self, other):
        if isinstance(other, WeightedPerm):
            other = other.to_matrix()
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append([a * b for a in r1 for b in r2])
        return Matrix(self.ring, out)

    def det(self):
        """Exact determinant over QQ or Z_m: fraction-free elimination on
        integer lifts, with each rational row cleared of denominators first
        and residues reduced mod m at the end."""
        if self.nrows != self.ncols:
            raise InvalidParameters("determinant of a %dx%d matrix" % (self.nrows, self.ncols))
        if isinstance(self.ring, IntegersMod):
            lift = [[v.residue for v in r] for r in self.rows]
            return self.ring.from_int(_int_det_bareiss(lift))
        scale = 1
        lift = []
        for r in self.rows:
            den = math.lcm(*(Fraction(v).denominator for v in r))
            scale *= den
            lift.append([int(v * den) for v in r])
        return Fraction(_int_det_bareiss(lift), scale)

    def inverse(self):
        """Exact inverse; SingularImage if not invertible.

        Gauss-Jordan on [A | I].  Over ZZ and Z_m the integer lift is
        inverted over QQ and each entry num/den maps to num * den^-1 in the
        ring; A is invertible there exactly when every den is a unit.
        """
        if self.nrows != self.ncols:
            raise InvalidParameters("only square matrices have inverses")
        n = self.nrows
        ring = self.ring
        if ring is ZZ or isinstance(ring, IntegersMod):
            lift = [[Fraction(v if ring is ZZ else v.residue) for v in r] for r in self.rows]
            inv = Matrix(QQ, lift).inverse()
            if not all(ring.is_unit(ring.from_int(v.denominator)) for v in inv.entries()):
                raise SingularImage("matrix is not invertible over %r" % (ring,))
            return Matrix(ring, [[ring.from_int(v.numerator)
                                  * ring.inv(ring.from_int(v.denominator)) for v in r]
                                 for r in inv.rows])
        span = RowSpan(n, ring)  # pivots in the A half only
        for i, r in enumerate(self.rows):
            span.insert(list(r) + [ring.one if i == j else ring.zero for j in range(n)])
        if span.dim < n:
            raise SingularImage("matrix is singular over %r" % (ring,))
        return Matrix(ring, [span.rows[span.pivot_of[c]][n:] for c in range(n)])

    def to_json(self):
        return [[self.ring.to_json(v) for v in r] for r in self.rows]

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.ring.name, self.nrows, self.ncols)


def _clear_denominators(vec):
    """(w, den): the ints w = den * vec, den the least common denominator."""
    den = math.lcm(*(a.denominator for a in vec))
    if den == 1:
        return [a.numerator for a in vec], 1
    return [a.numerator * (den // a.denominator) for a in vec], den


def _nonzero(vec):
    """(index, entry) for every nonzero entry of vec, in index order."""
    return [(j, a) for j, a in enumerate(vec) if a]


def _int_det_bareiss(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class WeightedPerm:
    """Operator sending e_j to wts[j] * e_{tgt[j]}; tgt is a bijection."""

    __slots__ = ("ring", "n", "tgt", "wts")

    def __init__(self, ring, tgt, wts):
        self.ring = ring
        self.tgt = tuple(tgt)
        self.wts = tuple(wts)
        self.n = len(self.tgt)

    @staticmethod
    def identity(ring, n):
        return WeightedPerm(ring, range(n), [ring.one] * n)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.n != other.nrows:
                raise InvalidParameters("size %d times %d rows" % (self.n, other.nrows))
            # row tgt[j] of (self*other) is wts[j] times row j of other;
            # zero entries stay as they are
            rows = [None] * self.n
            for t, w, r in zip(self.tgt, self.wts, other.rows):
                rows[t] = [w * a if a else a for a in r]
            return Matrix._wrap(self.ring, rows)
        if self.n != other.n:
            raise InvalidParameters("sizes %d and %d do not compose" % (self.n, other.n))
        # (self o other) e_j = other.wts[j] * self.wts[other.tgt[j]] * e_{...}
        return WeightedPerm(
            self.ring,
            [self.tgt[other.tgt[j]] for j in range(self.n)],
            [other.wts[j] * self.wts[other.tgt[j]] for j in range(self.n)])

    def inverse(self):
        tgt = [0] * self.n
        wts = [self.ring.one] * self.n
        for j in range(self.n):
            i = self.tgt[j]
            tgt[i] = j
            if not self.ring.is_unit(self.wts[j]):
                raise SingularImage("weight %r is not a unit" % (self.wts[j],))
            wts[i] = self.ring.inv(self.wts[j])
        return WeightedPerm(self.ring, tgt, wts)

    def __eq__(self, other):
        if not isinstance(other, WeightedPerm):
            return NotImplemented
        if self.n != other.n:
            return False
        # a zero weight (e.g. 2 * 2 over Z_4) leaves its column zero wherever
        # tgt sends it, so only the targets of nonzero weights must agree
        if self.tgt != other.tgt and any(
                a != b and w for a, b, w in zip(self.tgt, other.tgt, self.wts)):
            return False
        return self.wts == other.wts

    def __hash__(self):
        return hash((tuple(t for t, w in zip(self.tgt, self.wts) if w), self.wts))

    def is_identity(self):
        return all(self.tgt[j] == j and self.wts[j] == self.ring.one for j in range(self.n))

    def entries(self):
        """All n * n entries in row-major order, as one list."""
        n = self.n
        out = [self.ring.zero] * (n * n)
        for j, t, w in zip(range(n), self.tgt, self.wts):
            out[t * n + j] = w
        return out

    def kron(self, other):
        # basis order: index i*other.n + j  <->  e_i (x) e_j
        n2 = other.n
        tgt = []
        wts = []
        for i in range(self.n):
            for j in range(n2):
                tgt.append(self.tgt[i] * n2 + other.tgt[j])
                wts.append(self.wts[i] * other.wts[j])
        return WeightedPerm(self.ring, tgt, wts)

    def trace(self):
        acc = self.ring.zero
        for j in range(self.n):
            if self.tgt[j] == j:
                acc = acc + self.wts[j]
        return acc

    def to_matrix(self):
        m = Matrix.zeros(self.ring, self.n, self.n)
        for j in range(self.n):
            m.rows[self.tgt[j]][j] = self.wts[j]
        return m

    def __add__(self, other):
        return self.to_matrix() + other

    def __sub__(self, other):
        return self.to_matrix() - other

    def __repr__(self):
        return "WeightedPerm(n=%d)" % self.n


class CodedPerm:
    """A WeightedPerm with weights +-base^k, each weight held as its
    rings._monomial_codes int 2k + (weight < 0).  On one base two codes are
    equal iff the weights are; weights with codes c and d multiply to the
    code ((c & -2) + d) ^ (c & 1), and c inverts to (c & 1) - (c & -2)."""

    __slots__ = ("tgt", "codes", "base")

    def __init__(self, tgt, codes, base):
        self.tgt = tgt      # tuple: e_j goes to e_tgt[j]
        self.codes = codes  # tuple: the code of the weight of column j
        self.base = base

    @staticmethod
    def from_ops(ops):
        """The CodedPerms of WeightedPerms over QQ or LQ, all on one base;
        InvalidParameters unless every weight is +-b^k for that base."""
        if not all(isinstance(op, WeightedPerm) and op.ring in (QQ, LQ) for op in ops):
            raise InvalidParameters("only weighted permutations over QQ or LQ are coded")
        # an op repeats a few weight objects d times: key them by identity,
        # so each distinct object is coded (and hashed) once
        distinct = {}
        for op in ops:
            distinct.update(zip(map(id, op.wts), op.wts))
        code, base = _monomial_codes(distinct.values())
        code_of = {i: code[w] for i, w in distinct.items()}
        return [CodedPerm(op.tgt, tuple(map(code_of.__getitem__, map(id, op.wts))), base)
                for op in ops]

    @staticmethod
    def identity(n, base):
        return CodedPerm(tuple(range(n)), (0,) * n, base)

    def __mul__(self, other):
        # (self o other) e_j = e_{self.tgt[t]}, t = other.tgt[j], with the
        # product of the weights of column j of other and column t of self
        tgt, codes = self.tgt, self.codes
        return CodedPerm(tuple([tgt[t] for t in other.tgt]),
                         tuple([((c & -2) + codes[t]) ^ (c & 1)
                                for t, c in zip(other.tgt, other.codes)]),
                         self.base)

    def inverse(self):
        tgt, codes = [0] * len(self.tgt), [0] * len(self.tgt)
        for j, (t, c) in enumerate(zip(self.tgt, self.codes)):
            tgt[t] = j
            codes[t] = (c & 1) - (c & -2)
        return CodedPerm(tuple(tgt), tuple(codes), self.base)

    def __eq__(self, other):
        # the same operator whenever the bases agree, as from_ops makes them
        if not isinstance(other, CodedPerm):
            return NotImplemented
        return self.codes == other.codes and self.tgt == other.tgt and self.base == other.base

    def weight(self, code):
        """The weight +-base^k of the code 2k + sign."""
        w = self.base ** (code >> 1)
        return -w if code & 1 else w

    def to_matrix(self):
        ring = LQ if isinstance(self.base, LaurentPoly) else QQ
        return WeightedPerm(ring, self.tgt, map(self.weight, self.codes)).to_matrix()


def op_identity_like(op):
    if isinstance(op, Matrix):
        return Matrix.identity(op.ring, op.nrows)
    if isinstance(op, CodedPerm):
        return CodedPerm.identity(len(op.tgt), op.base)
    return WeightedPerm.identity(op.ring, op.n)


def op_dim(op):
    return op.nrows if isinstance(op, Matrix) else len(op.tgt)


def kron_list(ops):
    out = ops[0]
    for op in ops[1:]:
        out = out.kron(op)
    return out


# ---------------------------------------------------------------------------
# Elimination.

def rank(rows, ring=QQ) -> int:
    """Rank of a list of equal-length rows with entries in ring."""
    span = RowSpan(len(rows[0]) if rows else 0, ring)
    for r in rows:
        span.insert(r)
    return span.dim


class RowSpan:
    """Incremental reduced row form over QQ, ZZ, Z_m or the Laurent ring.

    This is the package's one Gauss-Jordan routine.  Each accepted row is
    back-substituted into the earlier rows, so every pivot column is zero
    outside its own row.  Pivots lie in the first ``width`` columns; over
    QQ and Z_p each is the leading entry, which makes the rows the reduced
    row echelon form.  Each row keeps the list of its nonzero entries, and
    reduction and back-substitution work on those alone.

    Over QQ and ZZ elimination is fraction-free (Bareiss 1968) and uses
    ints only; the span is the rational span of the rows in either case.
    A row is stored in ``int_rows`` as a primitive vector (gcd 1, pivot
    entry positive); over QQ an incoming vector has its denominators
    cleared once, over ZZ it is used as it is.  Back-substituting a new
    row with pivot entry p replaces a row with entry f in that column by
    ``(p // g) * row - (f // g) * new``, ``g = gcd(f, p)``, made primitive
    again.  ``rows`` and ``reduce`` read exact reduced rows
    ``[Fraction(a, p) ...]``, each row built on first read;
    ``int_rows[i]`` is a positive multiple of ``rows[i]``, for callers
    that need only the span.  Over other rings each row is normalised by
    the inverse of its pivot entry and ``rows`` holds ring elements.  A
    row that back-substitution changes is replaced, not mutated, so rows
    read earlier keep their values.
    """

    def __init__(self, width, ring=QQ):
        self.width = width
        self.ring = ring
        self.pivot_of = {}  # pivot column -> row index
        self._pivots = []   # sorted (pivot column, row index)
        self._row_nonzero = []  # _nonzero(row) for each stored row
        if ring is QQ or ring is ZZ:
            self.int_rows = []
            self._lead = []   # pivot entry of each integer row
            self._exact = []  # Fraction form of each row, None until read
            self.rows = _ExactRows(self.int_rows, self._lead, self._exact)
        else:
            self.int_rows = None
            self.rows = []

    @classmethod
    def identity(cls, width, ring=QQ):
        """The span of the width unit rows, built in its reduced form: the
        rows, pivots and dimension that inserting them one by one gives."""
        span = cls(width, ring)
        units = [[int(i == j) for j in range(width)] for i in range(width)]
        if span.int_rows is None:
            units = [[ring.one if a else ring.zero for a in row] for row in units]
            span.rows.extend(units)
        else:
            span.int_rows.extend(units)
            span._lead.extend([1] * width)
            span._exact.extend([None] * width)
        span._row_nonzero.extend([(i, row[i])] for i, row in enumerate(units))
        span.pivot_of = {i: i for i in range(width)}
        span._pivots = list(span.pivot_of.items())
        return span

    def reduce(self, vec):
        if self.int_rows is None:
            return self._reduce_field(vec)
        w, den = self._lift(vec)
        v, scale = self._reduce_int(w)
        return [Fraction(a, den * scale) if a else _ZERO for a in v]

    def insert(self, vec) -> bool:
        """Reduce vec against the span; add it if independent.

        The pivot is the first unit among the reduced row's entries;
        NonFieldModulus if they are nonzero but none is a unit.
        """
        if self.int_rows is None:
            return self._insert_field(vec)
        vec = self._lift(vec)[0]
        v = self._reduce_int(vec)[0]
        piv = next((c for c in range(self.width) if v[c]), None)
        if piv is None:
            return False
        g = math.gcd(*v)
        if v[piv] < 0:
            g = -g
        if g != 1:
            v = [a // g for a in v]
        elif v is vec:
            v = list(v)
        v_nonzero = _nonzero(v)
        v_cols = [j for j, _ in v_nonzero]
        p = v[piv]
        for ri, row in enumerate(self.int_rows):
            f = row[piv]
            if f:
                g = math.gcd(f, p)
                a, b = p // g, f // g
                row = list(row)
                old = self._row_nonzero[ri]
                if a != 1:
                    for j, x in old:
                        row[j] = a * x
                for j, y in v_nonzero:
                    row[j] -= b * y
                # only the columns nonzero in either operand can be nonzero
                cols = {j for j, _ in old}
                cols.update(v_cols)
                row_nonzero = [(j, row[j]) for j in cols if row[j]]
                g = math.gcd(*(x for _, x in row_nonzero))
                if g != 1:
                    row_nonzero = [(j, x // g) for j, x in row_nonzero]
                    for j, x in row_nonzero:
                        row[j] = x
                self.int_rows[ri] = row
                self._lead[ri] = self._lead[ri] * a // g
                self._row_nonzero[ri] = row_nonzero
                self._exact[ri] = None
        self._add_pivot(piv)
        self.int_rows.append(v)
        self._lead.append(p)
        self._row_nonzero.append(v_nonzero)
        self._exact.append(None)
        return True

    def contains(self, vec) -> bool:
        if self.int_rows is None:
            return not any(self._reduce_field(vec))
        return not any(self._reduce_int(self._lift(vec)[0])[0])

    @property
    def dim(self):
        return len(self.pivot_of)

    def _lift(self, vec):
        """(w, den): the ints w = den * vec, den 1 over ZZ."""
        if self.ring is ZZ:
            return vec, 1
        return _clear_denominators(vec)

    def _add_pivot(self, piv):
        self.pivot_of[piv] = len(self.pivot_of)
        self._pivots = sorted(self.pivot_of.items())

    def _reduce_int(self, w):
        """(u, s): u is s times the reduction of the int vector w, s > 0;
        u is w itself when w is zero at every pivot column.

        The rows are zero at every pivot column but their own, so the
        reduction is w - sum_c w[c] * rows[c] with the entries of w itself;
        one common multiplier makes every coefficient integral."""
        hits = [(w[c], ri) for c, ri in self._pivots if w[c]]
        if not hits:
            return w, 1
        lead = self._lead
        mult = 1
        for f, ri in hits:
            p = lead[ri]
            mult = math.lcm(mult, p // math.gcd(f, p))
        w = [mult * a for a in w] if mult != 1 else list(w)
        for f, ri in hits:
            k = mult * f // lead[ri]
            for j, b in self._row_nonzero[ri]:
                w[j] -= k * b
        return w, mult

    def _reduce_field(self, vec):
        v = list(vec)
        for c, ri in self._pivots:
            f = v[c]
            if f:
                for j, b in self._row_nonzero[ri]:
                    v[j] = v[j] - f * b
        return v

    def _insert_field(self, vec):
        v = self._reduce_field(vec)
        is_unit = self.ring.is_unit
        piv = next((c for c in range(self.width) if v[c] and is_unit(v[c])), None)
        if piv is None:
            if any(v[:self.width]):
                raise NonFieldModulus("no unit entry to pivot on over %r" % (self.ring,))
            return False
        inv = self.ring.inv(v[piv])
        v = [inv * a for a in v]
        v_nonzero = _nonzero(v)
        for ri, row in enumerate(self.rows):
            f = row[piv]
            if f:
                row = list(row)
                for j, b in v_nonzero:
                    row[j] = row[j] - f * b
                self.rows[ri] = row
                self._row_nonzero[ri] = _nonzero(row)
        self._add_pivot(piv)
        self.rows.append(v)
        self._row_nonzero.append(v_nonzero)
        return True


_ZERO = Fraction(0)


class _ExactRows(Sequence):
    """The reduced rows of a rational RowSpan as lists of Fractions, each
    built on first read from the span's integer rows and pivot entries."""

    __slots__ = ("_ints", "_lead", "_cache")

    def __init__(self, ints, lead, cache):
        self._ints, self._lead, self._cache = ints, lead, cache

    def __len__(self):
        return len(self._ints)

    def __getitem__(self, i):
        row = self._cache[i]
        if row is None:
            p = self._lead[i]
            row = [Fraction(a, p) if a else _ZERO for a in self._ints[i]]
            self._cache[i] = row
        return row
