"""Helpers shared by several test files; nothing in the package calls them."""

import itertools
import math
import random
from fractions import Fraction

from loopbraid.affine import (AffineParams, AglElement, _basis_change, rho_generators,
                              to_agl_form)
from loopbraid.analysis import (BmwReport, _color_swaps, _laurent_witness, _projected_hom_dim,
                                _require_symmetric, hom_space, is_e_null)
from loopbraid.errors import InvalidParameters, LoopBraidError
from loopbraid.linalg import Matrix, RowSpan, WeightedPerm, op_dim, rank
from loopbraid.modular import IntegersMod, ZmInt
from loopbraid.rings import LQ, QQ, ZZ, LaurentPoly
from loopbraid.symmetric import partitions, young_symmetrizer_coeffs
from loopbraid.tensor import (ChargeBlock, ModuleSpec, TauRep, _apply_columns, _apply_wp,
                              _charge_index, _perm_ops, f_columns, f_operator, harmonic_blocks,
                              harmonic_decompose, harmonic_projector, multiplicity_classes,
                              partition_block)
from loopbraid.words import (RelationReport, RelationResult, _first_difference,
                             evaluate_word)


def determinant_profile(p: AffineParams, elements) -> set:
    """Determinants of the given image elements, as residues mod m."""
    return {ZmInt(g.det().residue, p.m) for g in elements}


def from_agl_form(el: AglElement) -> Matrix:
    """Inverse of to_agl_form: the oracle of its round trip."""
    h = el.to_matrix()
    ring = h.ring
    b = _basis_change(ring, el.k + 1)
    return (b.inverse() * h * b).transpose()


def _row_times(row, cols, m):
    """The row times the matrix with the given columns, mod m."""
    return tuple(sum(x * y for x, y in zip(row, col)) % m for col in cols)


def dense_scale(mat, c):
    """Matrix.scale entry by entry, zeros included."""
    return Matrix(mat.ring, [[c * a for a in r] for r in mat.rows])


def dense_wperm_product(mat, wp):
    """Matrix * WeightedPerm entry by entry: column j is wts[j] times
    column tgt[j] of mat, zeros included."""
    return Matrix(mat.ring, [[wp.wts[j] * r[wp.tgt[j]] for j in range(wp.n)]
                             for r in mat.rows])


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_field(ring) -> bool:
    """Whether a ring descriptor is a field: QQ, or Z_m with m prime."""
    return ring is QQ or (isinstance(ring, IntegersMod) and is_probable_prime(ring.m))


def random_prime_above_2_30(rng) -> int:
    """A random prime > 2**30, for use as a Monte Carlo rank modulus."""
    while True:
        n = rng.randrange(2 ** 30 + 1, 2 ** 31) | 1
        if is_probable_prime(n):
            return n


def all_perms(k):
    return [tuple(p) for p in itertools.permutations(range(k))]


def partitions_max_rows(k, rows):
    return [p for p in partitions(k) if len(p) <= rows]


def symmetrized_seed_vector(block: ChargeBlock, rep: TauRep) -> list:
    """Sum over all of S_n of the signed symmetry action applied to the
    lexicographically first basis word (the classical one-dimensional
    seed; spans an invariant line only at the degenerate parameter)."""
    vec = [rep.ring.zero] * block.dim
    for _, op in _perm_ops(block, rep.ring, block.n):
        vec[op.tgt[0]] = vec[op.tgt[0]] + op.wts[0]
    return vec


# ---------------------------------------------------------------------------
# Proof-word landmarks inside AGL form: checks of the generation argument,
# which no command runs.

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
# The closure of the image algebra: the certificate of dim A and of the
# centers that the generator-form check replaced, kept as the oracle of
# closure_reports and of the trace-form and span tests.

class BlockOp:
    """An operator acting block-diagonally on the multiplicity-collapsed sum
    of the partition blocks (one copy per partition).

    Each block is a WeightedPerm or a Matrix over ZZ.  Words in monomial
    generators stay WeightedPerms, so a generator times a word costs one
    composition per block."""

    __slots__ = ("mats",)

    def __init__(self, mats):
        self.mats = list(mats)

    def __mul__(self, other):
        return BlockOp([a * b for a, b in zip(self.mats, other.mats)])

    def vec(self):
        out = []
        for m in self.mats:
            out.extend(m.entries())
        return out

    def commutator_vec(self, other):
        """vec() of self * other - other * self."""
        return [p - q for p, q in zip((self * other).vec(), (other * self).vec())]


def _integral(ops):
    """The Matrix or WeightedPerm operators over ZZ, all scaled by the
    least common denominator of their entries."""
    den = math.lcm(*(v.denominator for op in ops
                     for v in (op.wts if isinstance(op, WeightedPerm) else op.entries())))
    out = []
    for op in ops:
        if isinstance(op, WeightedPerm):
            out.append(WeightedPerm(ZZ, op.tgt, [w.numerator * (den // w.denominator)
                                                 for w in op.wts]))
        else:
            out.append(Matrix._wrap(ZZ, [[v.numerator * (den // v.denominator) if v else 0
                                          for v in r] for r in op.rows]))
    return out


def _closure(gens, seeds, right=()):
    """(basis, span): a basis of the span of the seeds closed under left
    multiplication by gens and right multiplication by right, and the ZZ
    RowSpan of its vec()s.

    Each accepted element is multiplied once by every generator on either
    side, which reaches every word in them: with [ident] as the seed this
    is the algebra A, with [f] and right=gens the two-sided ideal AfA, and
    with no generators the span of the seeds."""
    span = RowSpan(len(seeds[0].vec()), ZZ)
    basis = []
    fresh = [op for op in seeds if span.insert(op.vec())]
    while fresh:
        basis += fresh
        fresh = [p for b in fresh for p in [g * b for g in gens] + [b * h for h in right]
                 if span.insert(p.vec())]
    return basis, span


def _center_dim(basis, constraints):
    """dim of {x in span(basis) : [x, c] = 0 for all constraints}."""
    cols = []
    for b in basis:
        col = []
        for c in constraints:
            col.extend(b.commutator_vec(c))
        cols.append(col)
    return len(basis) - rank(cols, ZZ)


def _f_blockop(N, blocks, rep):
    return BlockOp(_integral([f_operator(N, b, rep) for b in blocks]))


# ---------------------------------------------------------------------------
# Algebra spans of arbitrary rational generators, and the trace-form Gram
# that certified the radical of the image algebra before the symmetry
# certificate replaced it.

class AlgebraSpan:
    __slots__ = ("d", "basis")

    def __init__(self, d: int, basis: list):
        self.d = d
        self.basis = basis


def algebra_span(generators) -> AlgebraSpan:
    """Linear basis of the unital algebra generated by square rational
    matrices (Matrix or WeightedPerm).  Each generator is first scaled to
    integer entries, which leaves the algebra unchanged, so the basis
    consists of words in the scaled generators."""
    if not generators:
        raise InvalidParameters("need at least one generator")
    if any(g.ring is not QQ for g in generators):
        raise InvalidParameters("algebra spans are computed over the rationals")
    d = op_dim(generators[0])
    if any(op_dim(g) != d or (isinstance(g, Matrix) and g.ncols != d) for g in generators):
        raise InvalidParameters("generators must be square matrices of one size")
    basis, _ = _closure([BlockOp(_integral([g])) for g in generators],
                        [BlockOp([WeightedPerm.identity(ZZ, d)])])
    out = []
    for b in basis:
        flat = [Fraction(v) for v in b.mats[0].entries()]
        out.append(Matrix(QQ, [flat[i:i + d] for i in range(0, d * d, d)]))
    return AlgebraSpan(d, out)


def trace_form(basis):
    """Gram rows tr(a b) over a basis of BlockOps.

    Each operand's nonzero entries are collected once, keyed by their
    position in vec(), and b's under its transpose: tr(a b) sums over the
    positions where both a and b^T are nonzero.  The form is symmetric, so
    each pair is summed once.
    """
    swap = []  # swap[p]: the position in vec() of the transpose of entry p
    for m in basis[0].mats:
        n, off = op_dim(m), len(swap)
        swap.extend(off + j * n + i for i in range(n) for j in range(n))
    plain = [{p: v for p, v in enumerate(op.vec()) if v} for op in basis]
    transposed = [{swap[p]: v for p, v in ents.items()} for ents in plain]
    k = len(basis)
    rows = [[None] * k for _ in range(k)]
    for x, a in enumerate(plain):
        for y in range(x, k):
            bt = transposed[y]
            acc = 0
            for pos in a.keys() & bt.keys():
                acc += a[pos] * bt[pos]
            rows[x][y] = rows[y][x] = acc
    return rows


def gram_radical_dim(basis):
    """The nullity of the trace-form Gram over a basis of BlockOps: in
    characteristic 0 the dimension of the radical of the algebra they
    span."""
    return len(basis) - rank(trace_form(basis), ZZ)


# ---------------------------------------------------------------------------
# Dense oracles of the kernels that now apply monomial operators term by
# term: the dense matrix-vector product, the symmetrizer as a dense matrix
# in localize and is_e_null, Fraction-weight branch words, and the BMW
# relations as dense Laurent matrix products.

def mul_vec(mat, v):
    """mat times the vector v, summing only the nonzero products, in
    increasing column."""
    z = mat.ring.zero
    v_nonzero = [(k, b) for k, b in enumerate(v) if b]
    out = []
    for r in mat.rows:
        acc = z
        for k, b in v_nonzero:
            a = r[k]
            if a:
                acc = acc + a * b
        out.append(acc)
    return out


def dense_is_e_null(m, f_mat):
    """is_e_null with f as the dense matrix of f_operator."""
    return all(not any(v != 0 for v in mul_vec(f_mat, row)) for row in m.span.int_rows)


def dense_localize(f_mat, mspec):
    """localize with f as the dense matrix of f_operator, applied to every
    basis row and to every residual generator image."""
    block = mspec.block
    N, n = block.N, block.n
    if n <= N:
        raise InvalidParameters("localizing needs more than N = %d strands, got %d" % (N, n))
    prefix = tuple(range(1, N + 1))
    images = [mul_vec(f_mat, row) for row in mspec.span.int_rows]
    if all(all(v == 0 for v in img) for img in images):
        return None, True
    comp = tuple(v - 1 for v in block.comp)
    if min(comp) < 0:
        raise LoopBraidError("a color missing from %s left a nonzero image" % (block.comp,))
    target = ChargeBlock(N, n - N, comp)

    def project(vec):
        out = [QQ.zero] * target.dim
        for j, v in enumerate(vec):
            if v and block.words[j][:N] == prefix:
                out[target.index[block.words[j][N:]]] = v
        return out

    projected = [project(img) for img in images]
    span = RowSpan(target.dim)
    for vec in projected:
        span.insert(vec)
    localized = ModuleSpec(target, mspec.rep, None, None, span.int_rows)
    ok = all(project(mul_vec(f_mat, _apply_wp(src, row))) == _apply_wp(dst, via)
             for src, dst in zip(block.ops(mspec.rep)[2 * N:], target.ops(mspec.rep))
             for row, via in zip(mspec.span.int_rows, projected))
    return localized, ok


def fraction_compose_word(ops, word, d):
    """A branch word composed letter by letter from the rational identity."""
    out = WeightedPerm.identity(QQ, d)
    for key in word:
        out = ops[key] * out
    return out


def dense_bmw_check(N, n=3):
    """bmw_check with every u, b and relation side a dense Laurent
    matrix."""
    rep = TauRep(N, None, "q")
    power = ChargeBlock(N, n)
    d = power.dim
    q = LaurentPoly.gen()
    qi = q.inverse()
    ident = Matrix.identity(LQ, d)
    b = {i: power.sigma_op(i, rep) for i in range(1, n)}
    u = {}
    results = {}

    def witness(lhs, rhs):
        diff = _first_difference(lhs, rhs)
        i, j = diff["position"]
        return {"row_word": "".join(map(str, power.words[i])),
                "col_word": "".join(map(str, power.words[j])),
                "left": diff["left"], "right": diff["right"]}

    for i in range(1, n):
        diff = b[i].to_matrix() - b[i].inverse().to_matrix()
        u_from_def = ident - Matrix(LQ, [[a.divexact(q - qi) if a else a for a in row]
                                         for row in diff.rows])
        u[i] = ident - power.s_op(i, rep).to_matrix()
        results.setdefault("u_definition", {"ok": True})
        if u_from_def != u[i]:
            results["u_definition"] = {"ok": False, "witness": witness(u_from_def, u[i])}

    def record(name, lhs, rhs):
        if name in results and not results[name]["ok"]:
            return
        if lhs == rhs:
            results.setdefault(name, {"ok": True})
        else:
            results[name] = {"ok": False, "witness": witness(lhs, rhs)}

    for i in range(1, n):
        record("r1", u[i] * b[i], u[i].scale(qi))
    for i, k in ((2, 1), (1, 2)):
        record("r2", (u[i] * b[k]) * u[i], u[i].scale(q))
        record("r2", (u[i] * b[k].inverse()) * u[i], u[i].scale(qi))
    for i in range(1, n):
        bm = b[i].to_matrix()
        cubic = (bm - ident.scale(qi)) * (bm - ident.scale(q)) * (bm + ident.scale(qi))
        record("rloc", cubic, Matrix.zeros(LQ, d, d))
    for i in range(1, n):
        record("u_squared", u[i] * u[i], u[i].scale(LaurentPoly.const(2)))
    for i, k in ((1, 2), (2, 1)):
        record("tl", (u[i] * u[k]) * u[i], u[i])
    return BmwReport(N, n, results)


# ---------------------------------------------------------------------------
# Dense and rational oracles of the kernels that now read a harmonic
# projector by its integer columns, and of the relation check that now
# compares weight codes.

def dense_harmonic_projector(block, label):
    """The harmonic projector summed term by term into a dense rational
    matrix."""
    classes = multiplicity_classes(block.lam)
    per_class = [(colors, young_symmetrizer_coeffs(mu))
                 for (_, colors), mu in zip(classes, label.mu)]
    total = Matrix.zeros(QQ, block.dim, block.dim)
    for combo in itertools.product(*(c.items() for _, c in per_class)):
        pi = list(range(1, block.N + 1))
        coeff = Fraction(1)
        for (colors, _), (perm, c) in zip(per_class, combo):
            coeff *= c
            for a, b in zip(colors, (colors[perm[i]] for i in range(len(colors)))):
                pi[a - 1] = b
        op = block.right_op(tuple(pi))
        for j in range(block.dim):
            total.rows[op.tgt[j]][j] = total.rows[op.tgt[j]][j] + coeff
    return total


def dense_trace_with_projector(w, e):
    """tr(W E) with W multiplied out against the dense projector E (None:
    the identity)."""
    wm = w.to_matrix()
    return (wm if e is None else wm * e).trace()


def fraction_branch(m, cands, seed):
    """The restriction of m against the given candidate modules, solved
    from trace identities over random words in the rational generator
    lists, with dense projectors: (summands, words used), or the text of
    the failure.  The sampling oracle of restrict_and_branch, which reads
    the multiplicities off the color-group rule instead."""
    block = m.block
    rng = random.Random(seed)
    dense = {}

    def projector(mod):
        if mod.label is None or mod.projector is None:
            return None
        if id(mod) not in dense:
            dense[id(mod)] = harmonic_projector(mod.block, mod.label)
        return dense[id(mod)]

    src_ops = block.ops(m.rep, block.n - 2)
    cand_ops = [c.block.ops(c.rep) for c in cands]
    keys = range(len(src_ops))
    k = len(cands)
    span = RowSpan(k + 1)
    rows = 0

    def add_row(word):
        nonlocal rows
        row = [dense_trace_with_projector(fraction_compose_word(ops, word, c.block.dim),
                                          projector(c))
               for c, ops in zip(cands, cand_ops)]
        row.append(dense_trace_with_projector(fraction_compose_word(src_ops, word, block.dim),
                                              projector(m)))
        span.insert(row)
        rows += 1

    def coeff_rank():
        return span.dim - (k in span.pivot_of)

    add_row(())
    tries = 0
    while keys and coeff_rank() < k and tries < 80:
        add_row(tuple(rng.choice(keys) for _ in range(rng.randrange(1, 7))))
        tries += 1
    if coeff_rank() < k:
        return "could not separate %d candidates" % k
    if keys:
        for _ in range(6):
            add_row(tuple(rng.choice(keys) for _ in range(rng.randrange(1, 7))))
    if k in span.pivot_of:
        return "trace system is inconsistent"
    summands = []
    total = 0
    for c, col in zip(cands, range(k)):
        mult = span.rows[span.pivot_of[col]][k]
        if mult == 0:
            continue
        if mult.denominator != 1 or mult < 0:
            return "non-integral multiplicity %s" % mult
        total += int(mult) * c.dim
        summands.append({"label": c.label_json(), "multiplicity": int(mult), "dim": c.dim})
    if total != m.dim:
        return "summand dimensions %d != module dimension %d" % (total, m.dim)
    return summands, rows


def evaluated_check_relations(images, rels, transposed=False):
    """check_relations with both sides of every relation multiplied out by
    evaluate_word."""
    report = RelationReport(rels.variant, rels.n)
    for rel in rels.relations:
        lhs = evaluate_word(images, rel.left, transposed)
        rhs = evaluate_word(images, rel.right, transposed)
        report.results.append(RelationResult(rel.label, True) if lhs == rhs else
                              RelationResult(rel.label, False, _first_difference(lhs, rhs)))
    return report


# ---------------------------------------------------------------------------
# Oracles of the kernels that now work on int codes: the BMW relations with
# Laurent term coefficients, and the localize residual check with rational
# generator weights.

def laurent_bmw_check(N, n=3):
    """bmw_check with every term coefficient and weight a LaurentPoly and
    every entry summed as one: the Laurent-term kernel that the int-coded
    terms replaced."""
    rep = TauRep(N, None, "q")
    power = ChargeBlock(N, n)
    d = power.dim
    words = power.words
    q = LaurentPoly.gen()
    qi = q.inverse()
    one = LQ.one
    ident = [(one, None)]  # None: the identity, composed and summed without a product

    sigma = {i: power.sigma_op(i, rep) for i in range(1, n)}
    b = {i: [(one, op)] for i, op in sigma.items()}
    b_inv = {i: [(one, op.inverse())] for i, op in sigma.items()}
    u = {}
    results = {}
    denom = q - qi
    for i in range(1, n):
        u_from_def = _laurent_entries(ident, d)
        for pos, v in _laurent_entries(b[i] + _laurent_scaled(-one, b_inv[i]), d).items():
            u_from_def[pos] = u_from_def.get(pos, LQ.zero) - v.divexact(denom)
        u_from_def = {pos: v for pos, v in u_from_def.items() if v}
        u[i] = ident + [(-one, power.s_op(i, rep))]
        u_struct = _laurent_entries(u[i], d)
        results.setdefault("u_definition", {"ok": True})
        if u_from_def != u_struct:
            results["u_definition"] = {"ok": False,
                                       "witness": _laurent_witness(u_from_def, u_struct, d, words)}

    def record(name, lhs, rhs):
        if name in results and not results[name]["ok"]:
            return
        lhs, rhs = _laurent_entries(lhs, d), _laurent_entries(rhs, d)
        if lhs == rhs:
            results.setdefault(name, {"ok": True})
        else:
            results[name] = {"ok": False, "witness": _laurent_witness(lhs, rhs, d, words)}

    for i in range(1, n):
        record("r1", _laurent_product(u[i], b[i]), _laurent_scaled(qi, u[i]))
    for i, k in ((2, 1), (1, 2)):
        record("r2", _laurent_product(u[i], b[k], u[i]), _laurent_scaled(q, u[i]))
        record("r2", _laurent_product(u[i], b_inv[k], u[i]), _laurent_scaled(qi, u[i]))
    for i in range(1, n):
        cubic = _laurent_product(b[i] + _laurent_scaled(-qi, ident),
                                 b[i] + _laurent_scaled(-q, ident),
                                 b[i] + _laurent_scaled(qi, ident))
        record("rloc", cubic, [])
    for i in range(1, n):
        record("u_squared", _laurent_product(u[i], u[i]),
               _laurent_scaled(LaurentPoly.const(2), u[i]))
    for i, k in ((1, 2), (2, 1)):
        record("tl", _laurent_product(u[i], u[k], u[i]), u[i])
    return BmwReport(N, n, results)


def _laurent_scaled(c, terms):
    """c times a sum of (coefficient, WeightedPerm) terms; a term's
    WeightedPerm None stands for the identity."""
    return [(c * a, p) for a, p in terms]


def _laurent_product(*factors):
    """The (coefficient, WeightedPerm or None) terms of the product of sums
    of such terms, the factors multiplied in the given order."""
    out = factors[0]
    for factor in factors[1:]:
        out = [(a * c, r if p is None else p if r is None else p * r)
               for a, p in out for c, r in factor]
    return out


def _laurent_entries(terms, d):
    """{(row, column): entry} of a sum of d x d (coefficient, WeightedPerm
    or None) terms over the Laurent ring, zero entries left out."""
    acc = {}
    for c, p in terms:
        if p is None:
            for j in range(d):
                acc[j, j] = acc.get((j, j), LQ.zero) + c
        else:
            for j, (i, w) in enumerate(zip(p.tgt, p.wts)):
                acc[i, j] = acc.get((i, j), LQ.zero) + c * w
    return {pos: v for pos, v in acc.items() if v}


def fraction_localize(f_cols, mspec):
    """localize with the residual generators in their rational weights,
    rebuilt for every module, and the (f, projection) columns multiplied
    by them in Fractions: the kernel that the int_ops checks replaced."""
    block = mspec.block
    N = block.N
    n = block.n
    if n <= N:
        raise InvalidParameters("localizing needs more than N = %d strands, got %d" % (N, n))
    # integer rows: a nonzero multiple of each basis row leaves the image
    # span, its zero test and the residual equalities unchanged; f has
    # integer entries, so the images are integer vectors too
    images = [_apply_columns(f_cols, row, block.dim) for row in mspec.span.int_rows]
    if not any(any(img) for img in images):
        return None, True  # the module is annihilated
    comp = tuple(v - 1 for v in block.comp)
    if min(comp) < 0:
        raise LoopBraidError("a color missing from %s left a nonzero image" % (block.comp,))
    target = ChargeBlock(N, n - N, comp)
    # the words 1..N w, in the order of the residual words w in the target
    prefix = tuple(range(1, N + 1))
    prefixed = [block.index[prefix + w] for w in target.words]
    projected = [[img[i] for i in prefixed] for img in images]
    span = RowSpan(target.dim)
    for vec in projected:
        span.insert(vec)
    localized = ModuleSpec(target, mspec.rep, None, None, span.int_rows)
    # f followed by the prefix projection, its rows renumbered by the target
    row_of = {i: t for t, i in enumerate(prefixed)}
    prefix_cols = [[(row_of[i], c) for i, c in col if i in row_of] for col in f_cols]
    ok = _fraction_residual_action_ok(prefix_cols, mspec, target, projected)
    return localized, ok


def _fraction_residual_action_ok(prefix_cols, mspec, target, projected):
    """Generator j + N on the module, followed by f and the prefix
    projection, equals generator j on the projected image of each row."""
    block = mspec.block
    for src, dst in zip(block.ops(mspec.rep)[2 * block.N:], target.ops(mspec.rep)):
        # the columns of (f, then the projection) times src
        cols = [[(i, c * w) for i, c in prefix_cols[t]] for t, w in zip(src.tgt, src.wts)]
        for row, via in zip(mspec.span.int_rows, projected):
            if _apply_columns(cols, row, target.dim) != _apply_wp(dst, via):
                return False
    return True


# ---------------------------------------------------------------------------
# The closure certificate of the image algebra that the hom-space orbit
# count replaced: A is built as the closure of the collapsed generators and
# compared by dimension with the sum of the End(M_i); and the irreducibility
# verdicts from projected hom spaces, module by module.

def collapsed_generators(N, n, x):
    """(blocks, gens, ident, rep): one partition block per partition, the
    generators on their direct sum as BlockOps scaled by the denominator of
    x to int weights, and the identity BlockOp."""
    rep = TauRep(N, x)
    blocks = [partition_block(N, n, lam) for lam, _ in _charge_index(N, n)]
    block_ops = [b.ops(rep) for b in blocks]
    _require_symmetric([op for ops in block_ops for op in ops])
    gens = [BlockOp(_integral(ops)) for ops in zip(*block_ops)]
    ident = BlockOp([WeightedPerm.identity(ZZ, b.dim) for b in blocks])
    return blocks, gens, ident, rep


def closure_wedderburn_pieces(blocks, gens, algebra_dim, pieces):
    """[(block index, module)] for the nonzero pieces when the algebra A of
    the collapsed generators, of dimension algebra_dim, is certified
    isomorphic to the sum of End(M_i) over them; None when a check fails.

    The certificate rests on three exact checks:
      1. dim A equals c = sum (dim M_i)^2;
      2. every generator maps every M_i into itself, so restriction is an
         algebra map A -> sum End(M_i);
      3. on each block the color swaps within a multiplicity class commute
         with every generator, and the translates of the block's M_i under
         them span the block, so the restriction is injective.
    An injective linear map between spaces of one dimension is onto."""
    nonzero = [(k, m) for k, mods in enumerate(pieces) for m in mods if m.dim]
    if algebra_dim != sum(m.dim ** 2 for _, m in nonzero):
        return None
    for g in gens:
        for k, m in nonzero:
            op = g.mats[k]
            if not all(m.span.contains(_apply_wp(op, row)) for row in m.span.int_rows):
                return None
    for k, block in enumerate(blocks):
        swaps = _color_swaps(block)
        if not all(all(op.tgt[r[j]] == r[op.tgt[j]] and op.wts[r[j]] == op.wts[j]
                       for j in range(block.dim))
                   for r in swaps for op in (g.mats[k] for g in gens)):
            return None
        span = RowSpan(block.dim, ZZ)
        frontier = [row for m in pieces[k] for row in m.span.int_rows]
        while frontier and span.dim < block.dim:
            fresh = [v for v in frontier if span.insert(v)]
            frontier = [_permuted(r, v) for v in fresh for r in swaps]
        if span.dim != block.dim:
            return None
    return nonzero


def _permuted(tgt, vec):
    """The permutation sending e_j to e_tgt[j] applied to vec."""
    out = [0] * len(vec)
    for t, v in zip(tgt, vec):
        out[t] = v
    return out


def closure_reports(N, n, x):
    """(semisimplicity_check, localization_report) from one closure of A,
    the counts read off the closure certificate where it holds and solved
    from the center equations where it fails; the second is None for
    n < N, where the symmetrizer is not defined."""
    blocks, gens, ident, rep = collapsed_generators(N, n, x)
    basis, _ = _closure(gens, [ident])
    pieces = closure_wedderburn_pieces(blocks, gens, len(basis),
                                       [harmonic_decompose(b, rep) for b in blocks])
    count_a = len(pieces) if pieces is not None else _center_dim(basis, gens)
    semisimple = {"radical_dim": 0, "center_dim": count_a, "algebra_dim": len(basis)}
    if n < N:
        return semisimple, None
    f = _f_blockop(N, blocks, rep)
    if pieces is not None:
        kept = [m for k, m in pieces if not is_e_null(m, f_columns(N, blocks[k]))]
        count_eae, count_quotient = len(kept), len(pieces) - len(kept)
        aea_dim = sum(m.dim ** 2 for m in kept)
    else:
        basis_eae, _ = _closure([], [f * b * f for b in basis])
        count_eae = _center_dim(basis_eae, basis_eae)
        basis_aea, span_aea = _closure(gens, [f], gens)
        cols = [[v for g in gens for v in span_aea.reduce(b.commutator_vec(g))]
                for b in basis]
        count_quotient = len(basis) - rank(cols) - len(basis_aea)
        aea_dim = len(basis_aea)
    return semisimple, {"radical_dim": 0, "simple_count": count_a,
                        "localized_count": count_eae, "quotient_count": count_quotient,
                        "aea_dim": aea_dim, "algebra_dim": len(basis),
                        "triangle_ok": count_a == count_eae + count_quotient}


def projected_end_dims(N, n, x):
    """harmonic_end_dims with every end_dim from the projected hom space."""
    rep = TauRep(N, x)
    out = []
    for _, _, block, mods in harmonic_blocks(N, n, rep):
        ops = block.ops(rep)
        comps = hom_space(ops, ops, block.dim, block.dim)
        out += [{"label": m.label_json(), "dim": m.dim,
                 "end_dim": _projected_hom_dim(comps, m, m)} for m in mods]
    return out


# ---------------------------------------------------------------------------
# The recursive compositions, word lists and composition-counting charge
# index that the iterative ones replaced.

def recursive_compositions(n, N):
    if N == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in recursive_compositions(n - first, N - 1):
            yield (first,) + rest


def recursive_words_with_content(N, comp):
    words = []

    def rec(remaining, prefix):
        if not any(remaining):
            words.append(tuple(prefix))
            return
        for c in range(N):
            if remaining[c]:
                remaining[c] -= 1
                prefix.append(c + 1)
                rec(remaining, prefix)
                prefix.pop()
                remaining[c] += 1

    rec(list(comp), [])
    return words


def composition_charge_index(N, n):
    """[(lam, number of compositions sorting to lam)], partitions descending,
    counted over every composition."""
    mult = {}
    for comp in recursive_compositions(n, N):
        lam = tuple(sorted((c for c in comp if c), reverse=True))
        mult[lam] = mult.get(lam, 0) + 1
    return sorted(mult.items(), reverse=True)
