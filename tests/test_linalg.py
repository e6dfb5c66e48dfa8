import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (dense_scale, dense_wperm_product, fraction_branch, is_field, mul_vec,
                     random_prime_above_2_30)
from loopbraid.errors import IncompleteMatch, NonFieldModulus, SingularImage
from loopbraid.linalg import Matrix, RowSpan, WeightedPerm, rank
from loopbraid.rings import LQ, QQ, ZZ, IntegersMod, LaurentPoly


def rank_and_kernel(mat: Matrix):
    """Row reduce and return (rank, kernel basis vectors), one kernel
    vector per non-pivot column.  NonFieldModulus as for RowSpan.insert."""
    ring = mat.ring
    span = RowSpan(mat.ncols, ring)
    for r in mat.rows:
        span.insert(r)
    kernel = []
    for fc in range(mat.ncols):
        if fc in span.pivot_of:
            continue
        v = [ring.zero] * mat.ncols
        v[fc] = ring.one
        for pc, ri in span.pivot_of.items():
            v[pc] = -span.rows[ri][fc]
        kernel.append(v)
    return span.dim, kernel


def laurent_matrix_at(mat: Matrix, q0) -> Matrix:
    """Evaluate a Laurent-entry matrix at a rational point, e.g. to take
    ranks over a field."""
    return Matrix(QQ, [[v.evaluate(q0) for v in row] for row in mat.rows])


def test_rank_and_kernel_examples():
    rank, kernel = rank_and_kernel(Matrix.identity(QQ, 3))
    assert rank == 3 and kernel == []
    rank, kernel = rank_and_kernel(Matrix.zeros(QQ, 2, 2))
    assert rank == 0 and len(kernel) == 2
    # hand elimination: [[1,1],[1,1]] -> rank 1, kernel (1,-1)
    m = Matrix.from_int_rows(QQ, [[1, 1], [1, 1]])
    rank, kernel = rank_and_kernel(m)
    assert rank == 1 and len(kernel) == 1
    v = kernel[0]
    assert v[0] * 1 + v[1] * 1 == 0 and v != [0, 0]
    assert v[0] == -v[1]


def test_kernel_vectors_annihilated():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(5)] for _ in range(3)]
        m = Matrix(QQ, rows)
        rank, kernel = rank_and_kernel(m)
        assert rank + len(kernel) == 5
        for v in kernel:
            assert all(val == 0 for val in mul_vec(m, v))


def test_rank_mod_p_agrees_with_rational():
    # Monte Carlo rank oracle: a prime > 2^30 sees the same rank as QQ for
    # small-entry matrices up to 30x30
    rng = random.Random(20241)
    p = random_prime_above_2_30(rng)
    zp = IntegersMod(p)
    for size in (5, 12, 30):
        rows = [[rng.randrange(-9, 10) for _ in range(size)] for _ in range(size)]
        # plant rank deficiency half the time
        if size % 2:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        rq = rank_and_kernel(Matrix.from_int_rows(QQ, rows))[0]
        rp = rank_and_kernel(Matrix.from_int_rows(zp, rows))[0]
        assert rq == rp


def test_nonfield_modulus_raises_only_on_stuck_pivot():
    z4 = IntegersMod(4)
    with pytest.raises(NonFieldModulus):
        rank_and_kernel(Matrix.from_int_rows(z4, [[2, 0], [0, 2]]))
    # a unit pivot exists, so this one succeeds
    rank, _ = rank_and_kernel(Matrix.from_int_rows(z4, [[1, 2], [3, 1]]))
    assert rank == 2


def test_matrix_inverse_and_det():
    m = Matrix.from_int_rows(QQ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == Matrix.identity(QQ, 2)
    assert m.det() == Fraction(1)
    z6 = IntegersMod(6)
    g = Matrix.from_int_rows(z6, [[2, 3], [3, 2]])  # det = -5 = 1, a unit
    assert (g * g.inverse()) == Matrix.identity(z6, 2)
    with pytest.raises(SingularImage):
        Matrix.from_int_rows(z6, [[2, 0], [0, 1]]).inverse()


def test_integer_matrix_inverse_stays_integral():
    # over ZZ a matrix is invertible only when its determinant is +-1, and
    # then the inverse holds plain ints
    m = Matrix(ZZ, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv.ring is ZZ and inv.rows == [[1, -1], [-1, 2]]
    assert all(type(v) is int for v in inv.entries())
    assert m * inv == Matrix.identity(ZZ, 2)
    with pytest.raises(SingularImage):
        Matrix(ZZ, [[2, 0], [0, 1]]).inverse()


def test_weighted_perm_roundtrips():
    wp = WeightedPerm(QQ, [1, 2, 0], [Fraction(2), Fraction(1), Fraction(-1)])
    assert wp * wp.inverse() == WeightedPerm.identity(QQ, 3)
    assert wp.to_matrix() * wp.inverse().to_matrix() == Matrix.identity(QQ, 3)
    # composition agrees with dense product
    other = WeightedPerm(QQ, [2, 0, 1], [Fraction(1), Fraction(3), Fraction(1)])
    assert (wp * other).to_matrix() == wp.to_matrix() * other.to_matrix()
    # kron agrees with dense kron
    assert (wp.kron(other)).to_matrix() == wp.to_matrix().kron(other.to_matrix())
    assert wp.trace() == wp.to_matrix().trace()


def test_rowspan_reduced_echelon():
    span = RowSpan(3)
    assert span.insert([Fraction(1), Fraction(1), Fraction(0)])
    assert span.insert([Fraction(0), Fraction(1), Fraction(1)])
    assert not span.insert([Fraction(1), Fraction(2), Fraction(1)])
    assert span.dim == 2
    assert span.contains([Fraction(2), Fraction(3), Fraction(1)])
    assert not span.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_laurent_matrix_evaluation_rank():
    q = LaurentPoly.gen()
    m = Matrix(LQ, [[q, q * q], [q.inverse(), q]])
    evaluated = laurent_matrix_at(m, Fraction(3))
    rank, _ = rank_and_kernel(evaluated)
    assert rank == 2
    singular = Matrix(LQ, [[q, q], [q, q]])
    rank, kernel = rank_and_kernel(laurent_matrix_at(singular, Fraction(3)))
    assert rank == 1 and len(kernel) == 1


# ---------------------------------------------------------------------------
# Diff tests of the RowSpan kernel against the eliminations it replaced,
# kept here as test-only oracles.

def _oracle_rank_and_kernel(mat):
    """Column-by-column Gauss-Jordan with a unit pivot search."""
    ring = mat.ring
    rows = [list(r) for r in mat.rows]
    nr, nc = mat.nrows, mat.ncols
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for rr in range(r, nr):
            if rows[rr][c] != ring.zero and ring.is_unit(rows[rr][c]):
                piv = rr
                break
        if piv is None:
            if any(rows[rr][c] != ring.zero for rr in range(r, nr)):
                raise NonFieldModulus("no unit pivot in column %d" % c)
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ring.inv(rows[r][c])
        rows[r] = [inv * a for a in rows[r]]
        for rr in range(nr):
            if rr != r and rows[rr][c] != ring.zero:
                f = rows[rr][c]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == nr:
            break
    pivot_cols = [c for _, c in pivots]
    kernel = []
    for fc in (c for c in range(nc) if c not in pivot_cols):
        v = [ring.zero] * nc
        v[fc] = ring.one
        for pr, pc in pivots:
            v[pc] = -rows[pr][fc]
        kernel.append(v)
    return len(pivots), kernel


def _oracle_solve_unique(rows, ncols):
    """Unique solution of [coeffs | rhs] rows by column-pivot elimination."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            raise IncompleteMatch("trace system is rank deficient")
        work[r], work[piv] = work[piv], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [inv * v for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    for i in range(r, len(work)):
        if any(work[i]):
            raise IncompleteMatch("trace system is inconsistent")
    return [work[i][ncols] for i in range(ncols)]


def _oracle_field_det(rows):
    """Determinant over QQ by elimination with field inverses."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def _lift(mat):
    if isinstance(mat.ring, IntegersMod):
        return [[Fraction(v.residue) for v in r] for r in mat.rows]
    return [list(r) for r in mat.rows]


def _oracle_det(mat):
    d = _oracle_field_det(_lift(mat))
    if isinstance(mat.ring, IntegersMod):
        return mat.ring.from_int(int(d))
    return d


def _oracle_adjugate_inverse(mat):
    """adj(A) / det(A), each cofactor a rational determinant of the lift."""
    lift = _lift(mat)
    n = len(lift)
    d = _oracle_field_det(lift)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[lift[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * _oracle_field_det(minor)
    ring = mat.ring
    if isinstance(ring, IntegersMod):
        d = int(d) % ring.m
        if math.gcd(d, ring.m) != 1:
            raise SingularImage("determinant %d is not a unit mod %d" % (d, ring.m))
        dinv = pow(d, -1, ring.m)
        return Matrix.from_int_rows(ring, [[dinv * int(v) for v in r] for r in adj])
    if d == 0:
        raise SingularImage("determinant is zero")
    return Matrix(QQ, [[v / d for v in r] for r in adj])


def _random_matrix(rng, ring, nrows, ncols, singular):
    if ring is QQ:
        rows = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
                 for _ in range(ncols)] for _ in range(nrows)]
    else:
        rows = [[ring.from_int(rng.randrange(ring.m)) for _ in range(ncols)]
                for _ in range(nrows)]
    if singular and nrows > 1:
        # last row a combination of two others (or a copy of one)
        a, b = rng.randrange(nrows - 1), rng.randrange(nrows - 1)
        k = ring.from_int(rng.randrange(-2, 3))
        rows[-1] = [x + k * y for x, y in zip(rows[a], rows[b])]
    return Matrix(ring, rows)


DIFF_RINGS = [QQ, IntegersMod(7), IntegersMod(1000003),
              IntegersMod(4), IntegersMod(6), IntegersMod(12)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NonFieldModulus, SingularImage) as exc:
        return type(exc)


def _same_span(ring, a, b):
    """The two lists of vectors span the same module over the ring."""
    def inside(vectors, basis):
        # a coordinate where one basis vector is 1 and the others vanish
        # reads off its coefficient in any combination
        coords = [next(c for c in range(len(k)) if k[c] == ring.one
                       and all(not o[c] for o in basis if o is not k)) for k in basis]
        return all(w == [sum((w[c] * k[i] for c, k in zip(coords, basis)), ring.zero)
                         for i in range(len(w))] for w in vectors)
    return inside(a, b) and inside(b, a)


@pytest.mark.parametrize("ring", DIFF_RINGS, ids=repr)
def test_rowspan_kernel_matches_oracles(ring):
    rng = random.Random(20260)
    compared = 0
    for size in range(1, 7):
        for trial in range(12):
            singular = trial % 2 == 1
            sq = _random_matrix(rng, ring, size, size, singular)
            assert sq.det() == _oracle_det(sq)
            inv = _outcome(Matrix.inverse, sq)
            assert inv == _outcome(_oracle_adjugate_inverse, sq)
            if inv is not SingularImage:
                assert sq * inv == Matrix.identity(ring, size)
            rect = _random_matrix(rng, ring, size, rng.randrange(1, 7), singular)
            got = _outcome(rank_and_kernel, rect)
            want = _outcome(_oracle_rank_and_kernel, rect)
            if is_field(ring):
                assert got == want
                compared += 1
            elif got is not NonFieldModulus:
                # over a composite modulus either elimination can get stuck
                # where the other finds a unit; when both finish they agree
                rank, kernel = got
                assert len(kernel) == rect.ncols - rank
                assert not any(any(mul_vec(rect, v)) for v in kernel)
                if want is not NonFieldModulus:
                    assert rank == want[0] and _same_span(ring, kernel, want[1])
                    compared += 1
    assert compared > 10


def test_rowspan_solves_trace_shaped_systems():
    # random overdetermined [coeffs | rhs] systems with unique, missing or
    # inconsistent solutions, solved the way restrict_and_branch does
    rng = random.Random(31)
    for trial in range(60):
        k = rng.randrange(1, 6)
        x = [Fraction(rng.randrange(-3, 4)) for _ in range(k)]
        rows = []
        for _ in range(k + rng.randrange(0, 5)):
            coeffs = [Fraction(rng.randrange(-5, 6)) for _ in range(k)]
            rows.append(coeffs + [sum(a * b for a, b in zip(coeffs, x))])
        if trial % 3 == 1:
            rows[-1][-1] += 1
        span = RowSpan(k + 1)
        for r in rows:
            span.insert(r)
        coeff_rank = span.dim - (k in span.pivot_of)
        try:
            want = _oracle_solve_unique(rows, k)
        except IncompleteMatch:
            assert coeff_rank < k or k in span.pivot_of
            continue
        assert coeff_rank == k and k not in span.pivot_of
        assert [span.rows[span.pivot_of[c]][k] for c in range(k)] == want
        assert want == x or trial % 3 == 1


def _candidates(mod):
    from loopbraid import analysis
    return analysis._restriction_candidates(mod, analysis._blocks_below(mod.block, mod.rep))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_branching_trace_systems_match_oracle(n):
    # the multiplicities of restrict_and_branch solve the trace system that
    # the oracle samples, at two seeds; six verification rows follow the
    # sampling when words exist
    from loopbraid import analysis
    from loopbraid.tensor import TauRep, harmonic_blocks

    for _, _, _, mods in harmonic_blocks(3, n, TauRep(3, Fraction(2))):
        for mod in mods:
            report = analysis.restrict_and_branch(mod)
            for seed in (7, 401):
                summands, rows = fraction_branch(mod, _candidates(mod), seed)
                assert summands == report.summands
                assert rows > (6 if n > 2 else 0)


def test_branching_inconsistent_trace_system(monkeypatch):
    # without its first summand the restriction of this module cannot be
    # matched: the oracle's trace system is inconsistent, and the summands
    # of the rule fail the dimension check
    from loopbraid import analysis
    from loopbraid.tensor import TauRep, harmonic_decompose, partition_block

    rep = TauRep(3, Fraction(2))
    (mod,) = [m for m in harmonic_decompose(partition_block(3, 4, (2, 1, 1)), rep)
              if m.label.mu == ((1,), (2,))]
    assert fraction_branch(mod, _candidates(mod)[1:], 7) == "trace system is inconsistent"
    full = analysis._restriction_candidates
    monkeypatch.setattr(analysis, "_restriction_candidates",
                        lambda m, below: full(m, below)[1:])
    with pytest.raises(IncompleteMatch, match="summand dimensions 3 != module dimension 6"):
        analysis.restrict_and_branch(mod)


# ---------------------------------------------------------------------------
# Diff tests of the zero-skipping products and RowSpan against the dense
# loops they replaced, kept here as test-only oracles.

def _dense_matmul(a, b):
    """Matrix x Matrix over every (i, k, j), skipping zero products."""
    z = a.ring.zero
    bt = list(zip(*b.rows))
    out = []
    for r in a.rows:
        row = []
        for c in bt:
            acc = z
            for x, y in zip(r, c):
                if x and y:
                    acc = acc + x * y
            row.append(acc)
        out.append(row)
    return Matrix(a.ring, out)


def _dense_mul_vec(a, v):
    z = a.ring.zero
    out = []
    for r in a.rows:
        acc = z
        for x, y in zip(r, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


class _DenseRowSpan:
    """RowSpan with every row operation over the whole row."""

    def __init__(self, width, ring=QQ):
        self.width = width
        self.ring = ring
        self.pivot_of = {}
        self.rows = []

    def reduce(self, vec):
        v = list(vec)
        for c, ri in sorted(self.pivot_of.items()):
            if v[c]:
                f = v[c]
                row = self.rows[ri]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        is_unit = self.ring.is_unit
        piv = next((c for c in range(self.width) if v[c] and is_unit(v[c])), None)
        if piv is None:
            if any(v[:self.width]):
                raise NonFieldModulus("no unit entry to pivot on over %r" % (self.ring,))
            return False
        inv = self.ring.inv(v[piv])
        v = [inv * a for a in v]
        for ri, row in enumerate(self.rows):
            if row[piv]:
                f = row[piv]
                self.rows[ri] = [a - f * b for a, b in zip(row, v)]
        self.pivot_of[piv] = len(self.rows)
        self.rows.append(v)
        return True

    @property
    def dim(self):
        return len(self.rows)


SPARSE_RINGS = [QQ, IntegersMod(7), IntegersMod(1000003), IntegersMod(4),
                IntegersMod(6), LQ]


def _sparse_entry(rng, ring, density):
    if rng.random() >= density:
        return ring.zero
    if ring is QQ:
        return Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
    if ring is LQ:
        if rng.random() < 0.6:  # a unit
            return LaurentPoly.monomial(rng.randrange(-2, 3), rng.choice((-2, -1, 1, 3)))
        return LaurentPoly({e: rng.randrange(-2, 3) for e in range(-1, 2)})
    return ring.from_int(rng.randrange(ring.m))


def _sparse_rows(rng, ring, nrows, ncols, density):
    return [[_sparse_entry(rng, ring, density) for _ in range(ncols)] for _ in range(nrows)]


def _same_entries(got, want):
    """Equal values of the same type, entry by entry."""
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("ring", SPARSE_RINGS, ids=repr)
def test_sparse_products_match_dense_oracle(ring):
    rng = random.Random(4242)
    for trial in range(40):
        n, k, m = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(1, 8)
        density = rng.choice((0.0, 0.15, 0.4, 1.0))
        a = Matrix(ring, _sparse_rows(rng, ring, n, k, density))
        b = Matrix(ring, _sparse_rows(rng, ring, k, m, density))
        got, want = a * b, _dense_matmul(a, b)
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        for r1, r2 in zip(got.rows, want.rows):
            _same_entries(r1, r2)
        v = _sparse_rows(rng, ring, 1, k, density)[0]
        _same_entries(mul_vec(a, v), _dense_mul_vec(a, v))


def _same_matrix(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    for r1, r2 in zip(got.rows, want.rows):
        _same_entries(r1, r2)


@pytest.mark.parametrize("ring", [QQ, LQ, IntegersMod(9)], ids=repr)
def test_zero_skipping_scale_and_wperm_product_match_dense(ring):
    rng = random.Random(8080)
    for trial in range(40):
        n = rng.randrange(1, 8)
        density = rng.choice((0.0, 0.15, 0.4, 1.0))
        a = Matrix(ring, _sparse_rows(rng, ring, rng.randrange(1, 8), n, density))
        c = ring.zero if trial % 4 == 0 else _sparse_entry(rng, ring, 1.0)
        _same_matrix(a.scale(c), dense_scale(a, c))
        tgt = list(range(n))
        rng.shuffle(tgt)
        wts = _sparse_rows(rng, ring, 1, n, 0.6)[0]
        if trial % 4 == 1:
            wts[rng.randrange(n)] = ring.zero
        wp = WeightedPerm(ring, tgt, wts)
        _same_matrix(a * wp, dense_wperm_product(a, wp))


@pytest.mark.parametrize("ring", SPARSE_RINGS + [IntegersMod(12)], ids=repr)
def test_sparse_rowspan_matches_dense_oracle(ring):
    rng = random.Random(9001)
    raised = 0
    for trial in range(60):
        width = rng.randrange(1, 9)
        extra = rng.randrange(0, 3)  # columns right of the pivot range
        density = rng.choice((0.15, 0.4, 0.8))
        rows = _sparse_rows(rng, ring, rng.randrange(1, 10), width + extra, density)
        if len(rows) > 2 and trial % 3 == 0:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]  # a dependent row
        got, want = RowSpan(width, ring), _DenseRowSpan(width, ring)
        for r in rows:
            outcome = _outcome(got.insert, r)
            assert outcome == _outcome(want.insert, r)
            assert got.pivot_of == want.pivot_of and got.dim == want.dim
            assert len(got.rows) == len(want.rows)
            for r1, r2 in zip(got.rows, want.rows):
                assert r1 == r2
            probe = _sparse_rows(rng, ring, 1, width + extra, density)[0]
            assert got.reduce(probe) == want.reduce(probe)
            if outcome is NonFieldModulus:
                raised += 1
                break
    assert raised > 0 or is_field(ring)


@pytest.mark.parametrize("ring", [QQ, ZZ, LQ, IntegersMod(5), IntegersMod(12)], ids=repr)
@pytest.mark.parametrize("width", [0, 1, 2, 7])
def test_rowspan_identity_matches_inserted_unit_rows(ring, width):
    got, want = RowSpan.identity(width, ring), RowSpan(width, ring)
    for i in range(width):
        if ring is QQ or ring is ZZ:
            want.insert([int(i == j) for j in range(width)])
        else:
            want.insert([ring.one if i == j else ring.zero for j in range(width)])
    assert got.int_rows == want.int_rows
    assert list(got.rows) == list(want.rows)
    assert got.pivot_of == want.pivot_of and got.dim == want.dim == width
    probe = [ring.from_int(j + 1) for j in range(width)]
    assert got.reduce(probe) == want.reduce(probe)
    assert got.insert(probe) is want.insert(probe) is False


def test_rowspan_back_substitution_replaces_rows():
    # callers keep rows they read (spin_dimension's frontier); a later
    # insert must not change them
    span = RowSpan(2)
    span.insert([Fraction(1), Fraction(1)])
    first = span.rows[0]
    span.insert([Fraction(0), Fraction(1)])
    assert first == [1, 1] and span.rows[0] == [1, 0]

# ---------------------------------------------------------------------------
# Diff tests of the fraction-free rational RowSpan against the Fraction
# elimination it replaced, kept here as a test-only oracle.

class _FractionRowSpan:
    """Gauss-Jordan over QQ on Fraction entries: each accepted row is
    normalised by the inverse of its pivot entry and back-substituted into
    the earlier rows, on nonzero entries only."""

    def __init__(self, width):
        self.width = width
        self.pivot_of = {}
        self.rows = []
        self._row_nonzero = []
        self._pivots = []

    def reduce(self, vec):
        v = list(vec)
        for c, ri in self._pivots:
            f = v[c]
            if f:
                for j, b in self._row_nonzero[ri]:
                    v[j] = v[j] - f * b
        return v

    def insert(self, vec):
        v = self.reduce(vec)
        piv = next((c for c in range(self.width) if v[c]), None)
        if piv is None:
            return False
        inv = Fraction(1) / v[piv]
        v = [inv * a for a in v]
        v_nonzero = [(j, a) for j, a in enumerate(v) if a]
        for ri, row in enumerate(self.rows):
            f = row[piv]
            if f:
                row = list(row)
                for j, b in v_nonzero:
                    row[j] = row[j] - f * b
                self.rows[ri] = row
                self._row_nonzero[ri] = [(j, a) for j, a in enumerate(row) if a]
        self.pivot_of[piv] = len(self.rows)
        self._pivots = sorted(self.pivot_of.items())
        self.rows.append(v)
        self._row_nonzero.append(v_nonzero)
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    @property
    def dim(self):
        return len(self.rows)


# large coprime denominators make the cleared rows wide integers
_DENOMINATORS = (1, 1, 2, 3, 7, 10007, 65537, 2 ** 31 - 1, 10007 * 65537, 2 ** 61 - 1)
_entries = st.one_of(
    st.just(Fraction(0)), st.integers(-5, 5),
    st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.sampled_from(_DENOMINATORS)))
_multipliers = st.builds(Fraction, st.integers(-7, 7), st.sampled_from(_DENOMINATORS))


@st.composite
def _rational_systems(draw):
    """(width, rows, probes): rows and probes of length width + extra, with
    zero rows and rows that depend on earlier ones."""
    width = draw(st.integers(1, 7))
    length = width + draw(st.integers(0, 2))  # columns right of the pivot range
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("free", "free", "sparse", "zero", "dependent")))
        if kind == "zero":
            row = [Fraction(0)] * length
        elif kind == "dependent" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_multipliers), draw(_multipliers)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(_entries, min_size=length, max_size=length))
            if kind == "sparse":
                keep = draw(st.integers(0, length - 1))
                row = [x if j == keep else Fraction(0) for j, x in enumerate(row)]
        rows.append(row)
    probes = draw(st.lists(st.lists(_entries, min_size=length, max_size=length),
                           min_size=len(rows), max_size=len(rows)))
    return width, rows, probes


def _assert_primitive_rows(span):
    for c, i in span.pivot_of.items():
        row = span.int_rows[i]
        assert all(type(a) is int for a in row)
        assert math.gcd(*row) == 1 and row[c] > 0
        assert all(row[o] == 0 for o in span.pivot_of if o != c)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_rational_systems())
def test_fraction_free_rowspan_matches_fraction_oracle(system):
    width, rows, probes = system
    got, want = RowSpan(width), _FractionRowSpan(width)
    ints = RowSpan(width, ZZ)  # fed each row times a common multiple of its denominators
    read = []  # (row handed out earlier, its values then)
    for r, probe in zip(rows, probes):
        before = list(r)
        scaled = [int(a * math.lcm(*(b.denominator for b in r)) * 3) for a in r]
        scaled_before = list(scaled)
        assert got.insert(r) == want.insert(r) == ints.insert(scaled)
        assert r == before and scaled == scaled_before
        assert ints.pivot_of == got.pivot_of and ints.int_rows == got.int_rows
        assert got.pivot_of == want.pivot_of and got.dim == want.dim
        assert len(got.rows) == len(want.rows) == len(got.int_rows)
        for g, w in zip(got.rows, want.rows):
            assert g == w and all(type(a) is Fraction for a in g)
        _assert_primitive_rows(got)
        assert got.reduce(probe) == want.reduce(probe)
        assert got.contains(probe) == want.contains(probe)
        assert got.contains(r) == want.contains(r) and got.reduce(r) == want.reduce(r)
        for row, values in read:
            assert row == values
        read.extend((row, list(row)) for row in got.rows)
        read.extend((row, list(row)) for row in ints.int_rows)
    assert rank([[int(a * math.lcm(*(b.denominator for b in r))) for a in r]
                 for r in rows], ZZ) == rank(rows)


# ---------------------------------------------------------------------------
# Zero-skipping sums, differences and equality against entry-by-entry
# formulas, and WeightedPerm against its dense matrix.

@pytest.mark.parametrize("ring", [QQ, LQ, IntegersMod(9)], ids=repr)
def test_zero_skipping_sum_difference_and_equality_match_entrywise(ring):
    rng = random.Random(9191)
    for trial in range(60):
        nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 7)
        density = rng.choice((0.0, 0.15, 0.4, 1.0))
        a = Matrix(ring, _sparse_rows(rng, ring, nrows, ncols, density))
        if trial % 3 == 0:  # equal, or one entry apart
            b = Matrix(ring, a.rows)
            if trial % 2:
                i, j = rng.randrange(nrows), rng.randrange(ncols)
                b.rows[i][j] = b.rows[i][j] + ring.one
        else:
            b = Matrix(ring, _sparse_rows(rng, ring, nrows, ncols, density))
        _same_matrix(a + b, Matrix(ring, [[x + y for x, y in zip(r1, r2)]
                                          for r1, r2 in zip(a.rows, b.rows)]))
        _same_matrix(a - b, Matrix(ring, [[x - y for x, y in zip(r1, r2)]
                                          for r1, r2 in zip(a.rows, b.rows)]))
        assert (a == b) == all(a.rows[i][j] == b.rows[i][j]
                               for i in range(nrows) for j in range(ncols))
        assert a == Matrix(ring, a.rows)
        assert a != Matrix(ring, [r + [ring.zero] for r in a.rows])
        assert a != Matrix(ring, a.rows + [[ring.zero] * ncols])


_WP_RINGS = [QQ, IntegersMod(7), IntegersMod(12)]


@st.composite
def _weighted_perms(draw, ring, n):
    tgt = draw(st.permutations(range(n)))
    if ring is QQ:
        weight = st.one_of(st.just(Fraction(0)),
                           st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
    else:
        weight = st.integers(0, ring.m - 1).map(ring.from_int)
    return WeightedPerm(ring, tgt, draw(st.lists(weight, min_size=n, max_size=n)))


@st.composite
def _weighted_perm_pairs(draw):
    ring = draw(st.sampled_from(_WP_RINGS))
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    return (ring, draw(_weighted_perms(ring, n)), draw(_weighted_perms(ring, n)),
            draw(_weighted_perms(ring, k)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_weighted_perm_pairs())
def test_weighted_perm_matches_dense_matrix(perms):
    ring, p, q, r = perms
    pm, qm, rm = p.to_matrix(), q.to_matrix(), r.to_matrix()
    assert (p * q).to_matrix() == pm * qm
    assert p * qm == pm * qm and pm * q == pm * qm
    assert p.kron(r).to_matrix() == pm.kron(rm)
    assert p.trace() == pm.trace()
    assert p.to_matrix() == pm
    assert (p == q) == (pm == qm)
    try:
        inv = p.inverse()
    except SingularImage:
        assert not all(ring.is_unit(w) for w in p.wts)
        with pytest.raises(SingularImage):
            pm.inverse()
    else:
        assert inv.to_matrix() == pm.inverse()
        assert p * inv == WeightedPerm.identity(ring, p.n) == inv * p


_Z4 = IntegersMod(4)
_RING_ENTRIES = {
    QQ: st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))),
    ZZ: st.integers(-9, 9),
    _Z4: st.integers(0, 3).map(_Z4.from_int),
    LQ: st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(LaurentPoly),
}


@st.composite
def _weighted_perm_times_matrix(draw):
    """(p, m): p a product of two weighted permutations, so that over Z_4
    two weights 2 give a zero weight, and m a matrix with p.n rows."""
    ring = draw(st.sampled_from(list(_RING_ENTRIES)))
    entry = _RING_ENTRIES[ring]
    n, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def wperm():
        return WeightedPerm(ring, draw(st.permutations(range(n))),
                            draw(st.lists(entry, min_size=n, max_size=n)))

    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=n, max_size=n))
    return wperm() * wperm(), Matrix(ring, rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_weighted_perm_times_matrix())
def test_weighted_perm_times_matrix_is_a_weighted_row_permutation(args):
    p, m = args
    _same_matrix(p * m, p.to_matrix() * m)
    assert p.entries() == list(p.to_matrix().entries())


def test_weighted_perm_equality_ignores_targets_of_zero_weights():
    a = WeightedPerm(QQ, [0, 1], [0, 0])
    b = WeightedPerm(QQ, [1, 0], [0, 0])
    assert a.to_matrix() == b.to_matrix() == Matrix.zeros(QQ, 2, 2)
    assert a == b and hash(a) == hash(b)
    # two weights 2 over Z_4 compose to the zero weight
    z4 = IntegersMod(4)
    two = WeightedPerm(z4, [1, 0], [z4.from_int(2)] * 2)
    assert two * two == WeightedPerm(z4, [1, 0], [z4.zero] * 2)
    assert (two * two).to_matrix() == Matrix.zeros(z4, 2, 2)
    assert hash(two * two) == hash(WeightedPerm(z4, [1, 0], [z4.zero] * 2))
    assert WeightedPerm(QQ, [0, 1], [0, 1]) != WeightedPerm(QQ, [1, 0], [0, 1])


def test_weighted_perm_and_matrix_never_compare_equal():
    # equal objects must hash alike, and the two types hash differently
    w, m = WeightedPerm.identity(QQ, 2), Matrix.identity(QQ, 2)
    assert w != m and m != w
    assert len({w, m}) == 2
    assert w.to_matrix() == m


@st.composite
def _zero_weight_pairs(draw):
    """p, then q with the targets of p's zero-weight columns permuted (and
    sometimes one weight changed), and r to compose with; over rings where
    products of nonzero weights can be zero."""
    ring = draw(st.sampled_from([QQ, IntegersMod(4), IntegersMod(6)]))
    n = draw(st.integers(1, 5))
    p = draw(_weighted_perms(ring, n))
    zero_cols = [j for j, w in enumerate(p.wts) if not w]
    tgt, wts = list(p.tgt), list(p.wts)
    for j, t in zip(zero_cols, draw(st.permutations([tgt[j] for j in zero_cols]))):
        tgt[j] = t
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        wts[j] = wts[j] + ring.one
    return p, WeightedPerm(ring, tgt, wts), draw(_weighted_perms(ring, n))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_zero_weight_pairs())
def test_weighted_perm_equality_and_hash_follow_the_matrix(perms):
    p, q, r = perms
    for a, b in ((p, q), (p * r, q * r), (r * p, r * q)):
        assert (a == b) == (a.to_matrix() == b.to_matrix())
        if a == b:
            assert hash(a) == hash(b)
