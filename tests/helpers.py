"""Helpers shared by several test files; nothing in the package calls them."""

from loopbraid.affine import AffineParams
from loopbraid.analysis import BmwReport
from loopbraid.errors import InvalidParameters, LoopBraidError
from loopbraid.linalg import Matrix, RowSpan, WeightedPerm
from loopbraid.rings import LQ, QQ, LaurentPoly, ZmInt, is_probable_prime
from loopbraid.tensor import ChargeBlock, ModuleSpec, TauRep, _apply_wp
from loopbraid.words import _first_difference


def determinant_profile(p: AffineParams, elements) -> set:
    """Determinants of the given image elements, as residues mod m."""
    return {ZmInt(g.det().residue, p.m) for g in elements}


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
