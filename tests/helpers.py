"""Helpers shared by several test files; nothing in the package calls them."""

import itertools
import random
from fractions import Fraction

from loopbraid.affine import AffineParams, AglElement, _basis_change
from loopbraid.analysis import BmwReport, _laurent_witness
from loopbraid.errors import InvalidParameters, LoopBraidError
from loopbraid.linalg import Matrix, RowSpan, WeightedPerm
from loopbraid.rings import LQ, QQ, LaurentPoly, ZmInt, is_probable_prime
from loopbraid.symmetric import young_symmetrizer_coeffs
from loopbraid.tensor import (ChargeBlock, ModuleSpec, TauRep, _apply_columns, _apply_wp,
                              harmonic_projector, multiplicity_classes)
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
    """restrict_and_branch against the given candidate modules with the
    rational generator lists, rational words and dense projectors:
    (summands, words used), or the IncompleteMatch text."""
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
