"""Module-theoretic verdicts: commutants, irreducibility, null detection,
restriction multiplicities, semisimplicity, the localization triangle and
the cubic-algebra relation certificates.

Every generator image on a charge block has exactly one nonzero entry per
column, so an intertwiner system X rho(g) = rho(g) X links entries in
pairs: X[pi(a), pi(b)] = (w_a / w_b) X[a, b].  Commutant and Hom spaces
are therefore computed exactly by propagating scalars over the orbit
graph of matrix cells, with a component forced to zero when a cycle
product disagrees.  The generators are symmetric matrices
(_require_symmetric), so the image algebra A is semisimple without
computation.  One check of the generator form (_relabelings_only) holds
at every x, and semisimplicity_check and localization_report read A off
the theorem it proves: the mixed-cell lemma (A is the sum of End(M_i)
over the harmonic modules) at every x but -1, Young's rule (A is the
image of Q[S_n], its simples the Specht modules S^lam of the blocks) at
x = -1; no element of A is built.  harmonic_end_dims gives end_dim 1 off
the lemma and counts hom-space orbits at x = -1.  Restriction
multiplicities are read off the color-group rule and certified by fiber
isomorphisms (restrict_and_branch).
"""

from __future__ import annotations

import math
from fractions import Fraction

# nothing here calls braided: perfbench's traced run wraps all eight layer
# modules once its microbenchmarks have imported this one, affine and
# tensor, and affine no longer loads braided
from . import braided  # noqa: F401
from .errors import IncompleteMatch, InvalidParameters, LoopBraidError, NotIdempotent
from .linalg import CodedPerm, Matrix, RowSpan
from .rings import LQ, ZZ, LaurentPoly
from .symmetric import hook_dim
from .tensor import (ChargeBlock, HarmonicLabel, ModuleSpec, TauRep, _apply_columns,
                     _apply_wp, _charge_index, _swap, f_columns, harmonic_blocks,
                     harmonic_decompose, harmonic_labels, multiplicity_classes,
                     partition_block, right_color_action, young_module)
from .words import _first_difference

# ---------------------------------------------------------------------------
# Hom spaces by orbit propagation.

def hom_space(ops_src, ops_tgt, d_src, d_tgt):
    """Basis of {X : X rho_src(g) = rho_tgt(g) X}, each element a dict
    cell -> value (a Fraction in form x) with cell = a * d_src + b meaning
    X[a, b].

    Each generator pair (s, t) maps cell (a, b) to (t.tgt[a], s.tgt[b]) and
    forces X there to be t.wts[a] / s.wts[b] times X[a, b].  These maps are
    bijections of the cells, so a walk from the least cell of an orbit
    reaches the whole orbit and checks every constraint on it once; the
    orbit is a basis element, scaled to 1 at that cell, iff none disagrees.

    Every weight is +-b^k for the one weight b that is not +-1 (x in form
    x, q in form q; InvalidParameters otherwise), so the generators are
    coded as linalg.CodedPerms and the walk carries each value as its code
    2k + (value < 0): a product adds the exponent parts and xors the sign
    bits.  Two codes are equal iff the values are; with every weight a
    sign, the codes are the signs.  Only the live orbits are decoded."""
    coded = CodedPerm.from_ops([*ops_src, *ops_tgt])
    moves = []
    for s, t in zip(coded[:len(ops_src)], coded[len(ops_src):]):
        # (row offset of the target, exponent part, sign bit); the weight of
        # s enters inverted, which negates its exponent
        t_side = [(a * d_src, c & -2, c & 1) for a, c in zip(t.tgt, t.codes)]
        s_side = [(b, -(c & -2), c & 1) for b, c in zip(s.tgt, s.codes)]
        moves.append((t_side, s_side))
    value = [None] * (d_src * d_tgt)
    live_orbits = []
    for start in range(len(value)):
        if value[start] is not None:
            continue
        value[start] = 0
        orbit = [start]
        stack = [start]
        live = True
        while stack:
            cell = stack.pop()
            a, b = divmod(cell, d_src)
            v = value[cell]
            for t_side, s_side in moves:
                ta, te, ts = t_side[a]
                sb, se, ss = s_side[b]
                nxt = ta + sb
                w = (v + te + se) ^ ts ^ ss
                if value[nxt] is None:
                    value[nxt] = w
                    orbit.append(nxt)
                    stack.append(nxt)
                elif value[nxt] != w:
                    live = False
        if live:
            live_orbits.append(orbit)
    weight = coded[0].weight if coded else lambda c: Fraction(1)  # no generators
    decoded = {}
    basis = []
    for orbit in live_orbits:
        comp = {}
        for cell in orbit:
            c = value[cell]
            f = decoded.get(c)
            if f is None:
                f = decoded[c] = weight(c)
            comp[cell] = f
        basis.append(comp)
    return basis


def _project_hom(components, e_tgt, e_src, d_src, d_tgt):
    """Dimension of span{E_tgt X E_src} over the hom-space basis.

    Each projector is given by its integer columns (den, cols) as
    ModuleSpec.projector holds it, None for the identity.  X is nonzero
    only on its component's cells and the columns are sparse, so E_tgt X
    E_src is accumulated over nonzero entries only.  X is scaled to integer
    entries and the projectors are read as den E; nonzero scalars leave the
    dimension unchanged."""
    if e_tgt is None:
        tgt_cols = [[(c, 1)] for c in range(d_tgt)]
    else:
        tgt_cols = [list(col.items()) for col in e_tgt[1]]
    if e_src is None:
        src_rows = [[(c, 1)] for c in range(d_src)]
    else:
        src_rows = [[] for _ in range(d_src)]  # the columns read by row
        for b, col in enumerate(e_src[1]):
            for c, e in col.items():
                src_rows[c].append((b, e))
    span = RowSpan(d_src * d_tgt, ZZ)
    dim = 0
    for comp in components:
        den = math.lcm(*(f.denominator for f in comp.values()))
        left = {}  # (row, column) -> entry of E_tgt X
        for cell, f in comp.items():
            c, b = divmod(cell, d_src)
            f = f.numerator * (den // f.denominator)
            for a, e in tgt_cols[c]:
                left[a, b] = left.get((a, b), 0) + e * f
        vec = [0] * (d_src * d_tgt)
        for (a, c), y in left.items():
            if y:
                for b, e in src_rows[c]:
                    vec[a * d_src + b] += y * e
        if span.insert(vec):
            dim += 1
    return dim


def _module_projector(m: ModuleSpec):
    if m.projector is not None:
        return m.projector
    if m.dim == m.block.dim:
        return None
    raise ValueError("module has no projector and does not fill its block")


def end_dim(m: ModuleSpec) -> int:
    """dim End(M): the intertwiner solution space on the projected module."""
    return hom_dim(m, m)


def hom_dim(m1: ModuleSpec, m2: ModuleSpec) -> int:
    """dim Hom(M1, M2) for modules at the same (N, n, x)."""
    if (m1.block.N, m1.block.n, m1.rep) != (m2.block.N, m2.block.n, m2.rep):
        raise InvalidParameters("Hom needs two modules at the same (N, n, x)")
    comps = hom_space(m1.block.ops(m1.rep), m2.block.ops(m2.rep),
                      m1.block.dim, m2.block.dim)
    return _projected_hom_dim(comps, m1, m2)


def _projected_hom_dim(comps, m1, m2):
    """dim Hom(M1, M2) from the hom space between their blocks."""
    e1 = _module_projector(m1)
    e2 = _module_projector(m2)
    if e1 is None and e2 is None:
        return len(comps)
    return _project_hom(comps, e2, e1, m1.block.dim, m2.block.dim)


def is_irreducible(m: ModuleSpec) -> bool:
    """end_dim == 1.  For a module whose generators are symmetric matrices
    (the x form, as _require_symmetric checks) this certifies absolute
    irreducibility; end_dim > 1 always rules it out."""
    return end_dim(m) == 1


def is_e_null(m: ModuleSpec, f_cols) -> bool:
    """True iff the symmetrizer, given by its f_columns, annihilates every
    basis vector."""
    return not any(any(_apply_columns(f_cols, row, m.block.dim)) for row in m.span.int_rows)


def spin_dimension(block: ChargeBlock, rep: TauRep, vec) -> int:
    """Dimension of the submodule generated by a vector, exactly over the
    rationals."""
    ops = block.ops(rep)
    span = RowSpan(block.dim)
    span.insert(vec)
    frontier = list(span.int_rows)  # a nonzero multiple of each row spans alike
    while frontier:
        fresh = []
        for v in frontier:
            for op in ops:
                before = span.dim
                if span.insert(_apply_wp(op, v)):
                    fresh.append(span.int_rows[before])
        frontier = fresh
    return span.dim


# ---------------------------------------------------------------------------
# The image algebra of the collapsed generators.

def _require_symmetric(ops):
    """Raise LoopBraidError unless every WeightedPerm in ops is a symmetric
    matrix: its permutation an involution, equal weights on each swap.

    Symmetric generators span an algebra A closed under transpose.  For a
    in the radical of A, a a^T is in the radical, so nilpotent, and
    symmetric, so 0; its trace is the sum of the squares of the entries
    of a, so a = 0.  Over the rationals A is therefore semisimple, as is
    every module it acts on (Lam, GTM 131, sections 3-4)."""
    for op in ops:
        tgt, wts = op.tgt, op.wts
        if [tgt[t] for t in tgt] != list(range(len(tgt))) or [wts[t] for t in tgt] != list(wts):
            raise LoopBraidError("a generator image is not a symmetric matrix, so the "
                                 "image algebra is not certified semisimple")


def _relabelings_only(block: ChargeBlock, ops, rep: TauRep) -> bool:
    """True when ops, the generator images on the partition block B_lam,
    have the generator form, read off in O(n d): the form is x; sigma_j
    and s_j fix exactly the words whose letters j, j+1 agree, with weights
    x and 1, and send every other word to its j-swap with weights 1 and -1;
    and the color swaps commute with every op.  Only the theorem that
    then certifies A depends on x.

    At x != -1, the mixed-cell lemma: dim End_A(B_lam) = |G_lam|, G_lam
    the color permutations that fix lam, and Hom(B_lam, B) = 0 for every
    other block B.  A generator g moves cell (a, b) of an intertwiner to
    (g a, g b); an orbit of cells lives only if every cycle in it has
    product 1 (hom_space).  Where exactly one of a, b has equal letters at
    j, j+1, sigma_j closes a 2-cycle of product x^(+-2) and sigma_j then
    s_j one of product -x or -1/x: the orbit dies.  Elsewhere both swap
    the positions of a and b together with factor 1, so an orbit with no
    such mixed cell has a_p = a_q iff b_p = b_q: b is a relabeling of a,
    one orbit per g in G_lam.  G_lam acts freely, so End_A(B_lam) =
    Q[G_lam] and the harmonic modules are nonzero, absolutely irreducible
    and pairwise non-isomorphic (Fulton-Harris, GTM 129, Lecture 4); A is
    semisimple and faithful, so by density it is the sum of their End(M_i)
    (Lam, GTM 131, s. 11): dim A = sum d_lam^2 / |G_lam|, one simple per
    harmonic label.

    At x = -1, Young's rule: sigma_j = -s_j, so A is the image of Q[S_n],
    and w -> (-1)^inv(w) w carries s_j on B_lam to the plain swap of
    positions j, j+1, so B_lam is the permutation module M^lam =
    Ind_{S_lam}^{S_n} 1.  It contains the Specht module S^nu iff nu
    dominates lam, which forces len(nu) <= len(lam) <= N, and M^nu
    contains S^nu (Sagan, The Symmetric Group, s. 2.11; Fulton-Harris,
    Lecture 4).  So the simples of A are the S^lam over the blocks: one
    simple per block, dim A = sum hook_dim(lam)^2."""
    if rep.form != "x" or len(ops) != 2 * max(block.n - 1, 0):
        return False
    for j in range(1, block.n):
        same = [w[j - 1] == w[j] for w in block.words]
        tgt = tuple(i if eq else block.index[_swap(w, j)]
                    for i, (w, eq) in enumerate(zip(block.words, same)))
        sigma, s = ops[2 * j - 2], ops[2 * j - 1]
        if sigma.tgt != tgt or s.tgt != tgt or \
                sigma.wts != tuple(rep.x if eq else 1 for eq in same) or \
                s.wts != tuple(1 if eq else -1 for eq in same):
            return False
    return _swaps_commute(block, ops)


def _swaps_commute(block: ChargeBlock, ops) -> bool:
    """True when every color swap of _color_swaps commutes with every op."""
    return all(op.tgt[r[j]] == r[op.tgt[j]] and op.wts[r[j]] == op.wts[j]
               for r in _color_swaps(block) for op in ops for j in range(block.dim))


def _color_swaps(block: ChargeBlock) -> list:
    """The swaps of two neighbouring colors of one multiplicity class, as
    target lists on the block's words; they generate the color relabelings
    that fix the block's content."""
    out = []
    for _, colors in multiplicity_classes(block.lam):
        for a, b in zip(colors, colors[1:]):
            pi = list(range(1, block.N + 1))
            pi[a - 1], pi[b - 1] = b, a
            out.append(block.right_op(tuple(pi)).tgt)
    return out


def _certified_image(N, n, x):
    """(blocks, rep) for the image algebra A at (N, n, x): one partition
    block per partition, in the order of the charge index, whose generator
    images pass _require_symmetric, so A has radical 0, and
    _relabelings_only, so A is certified by the mixed-cell lemma or by
    Young's rule.  Raises LoopBraidError where a block fails either."""
    rep = TauRep(N, x)
    blocks = [partition_block(N, n, lam) for lam, _ in _charge_index(N, n)]
    block_ops = [b.ops(rep) for b in blocks]
    _require_symmetric([op for ops in block_ops for op in ops])
    for b, ops in zip(blocks, block_ops):
        if not _relabelings_only(b, ops, rep):
            raise LoopBraidError("the generator images on the block %s are not of the "
                                 "generator form, so the image algebra is not certified"
                                 % (b.lam,))
    return blocks, rep


def _simple_counts(blocks, rep):
    """(center_dim, dim A) of the certified image algebra: one simple
    S^lam of dimension hook_dim(lam) per block at x = -1, one simple per
    harmonic label and d_lam^2 / |G_lam| per block elsewhere
    (_relabelings_only)."""
    if rep.x == -1:
        return len(blocks), sum(hook_dim(b.lam) ** 2 for b in blocks)
    center = algebra_dim = 0
    for b in blocks:
        center += len(harmonic_labels(b.lam))
        algebra_dim += b.dim ** 2 // math.prod(math.factorial(len(colors))
                                               for _, colors in multiplicity_classes(b.lam))
    return center, algebra_dim


def semisimplicity_check(N, n, x) -> dict:
    """Radical and center of the image algebra A at (N, n, x).

    The radical is 0 by the symmetry certificate of _certified_image
    (LoopBraidError when it fails), so center_dim counts the simple
    summands.  Both counts are closed forms (_simple_counts) of the
    theorem that the generator-form check (_relabelings_only) proves: the
    mixed-cell lemma at every x but -1, Young's rule at x = -1.  No
    element of A is built, no module decomposed and no hom space walked.
    """
    center, algebra_dim = _simple_counts(*_certified_image(N, n, x))
    return {"radical_dim": 0, "center_dim": center, "algebra_dim": algebra_dim}


def _squares_to(cols, c) -> bool:
    """True when the operator with the given f_columns squares to c times
    itself, checked column by column on the nonzero entries."""
    for col in cols:
        acc = {}
        for i, a in col:
            for k, b in cols[i]:
                acc[k] = acc.get(k, 0) + a * b
        if sorted((k, v) for k, v in acc.items() if v) != [(k, c * v) for k, v in col]:
            return False
    return True


def localization_report(N, n, x) -> dict:
    """Simple counts of A, eAe and A/AeA with e the normalized symmetrizer.

    Requires e^2 = e exactly (NotIdempotent otherwise), checked as
    f^2 = N! f on the sparse columns of f = N! e.  f lies in A (it is a
    signed sum of words in the s_j), so eAe is the sum of End(e S) and
    AeA the sum of End(S) over the simples S that e does not kill, and
    A/AeA the sum over the rest.  At every x but -1 the simples are the
    harmonic modules (_relabelings_only) and is_e_null reads off which
    survive.  At x = -1 they are the S^lam, and f is the antisymmetrizer
    of S_N on the first N strands (after the sign change of
    _relabelings_only), which is nonzero on S^lam iff lam has at least N
    rows: the blocks with N rows survive.  No element of A is built, and
    triangle_ok holds by construction.
    """
    blocks, rep = _certified_image(N, n, x)
    f_cols = [f_columns(N, b) for b in blocks]
    if not all(_squares_to(cols, math.factorial(N)) for cols in f_cols):
        raise NotIdempotent("f/N! fails to square to itself")
    count_a, algebra_dim = _simple_counts(blocks, rep)
    if rep.x == -1:
        kept = [hook_dim(b.lam) for b in blocks if len(b.lam) == N]
    else:
        kept = [m.dim for b, cols in zip(blocks, f_cols) for m in harmonic_decompose(b, rep)
                if not is_e_null(m, cols)]
    return {"radical_dim": 0,
            "simple_count": count_a,
            "localized_count": len(kept),
            "quotient_count": count_a - len(kept),
            "aea_dim": sum(d ** 2 for d in kept),
            "algebra_dim": algebra_dim,
            "triangle_ok": True}


# ---------------------------------------------------------------------------
# Restriction and branching.

class BranchReport:
    __slots__ = ("source", "dim", "summands", "verified")

    def __init__(self, source: dict, dim: int, summands: list, verified: bool):
        self.source = source
        self.dim = dim
        self.summands = summands
        self.verified = verified

    def to_json(self):
        return {"source": self.source, "dim": self.dim,
                "summands": self.summands, "verified": self.verified}


def _reachable_partitions(block: ChargeBlock) -> list:
    """Partitions reached by forgetting one letter of the block, decreasing."""
    return sorted(young_branch_rule(block.N, block.comp), reverse=True)


def _blocks_below(block: ChargeBlock, rep: TauRep) -> dict:
    """{lam': (its level n-1 partition block, that block's int_ops)} over
    the reachable partitions, in decreasing order."""
    below = {}
    for lam in _reachable_partitions(block):
        sub = partition_block(block.N, block.n - 1, lam)
        below[lam] = (sub, sub.int_ops(rep))
    return below


def _restriction_candidates(m: ModuleSpec, below: dict):
    """The candidate modules at level n-1 on the blocks of _blocks_below."""
    if m.label is None:
        return [young_module(sub, m.rep) for sub, _ in below.values()]
    return [c for sub, _ in below.values() for c in harmonic_decompose(sub, m.rep)]


def restrict_and_branch(m: ModuleSpec) -> BranchReport:
    """Decompose the restriction of M to one fewer strand.

    The words of the block B_lam ending in the color c span a submodule
    F_c of the restriction, and "delete the last letter, then sort the
    colors" maps F_c onto the block of lam' = lam - e_c; _check_fibers
    certifies that this map is a bijection intertwining every generator.
    The color group permutes the fibers, so by Frobenius reciprocity and
    the S_k branching rule the multiplicity of each candidate at level
    n-1 is read off the labels (_rule_multiplicity), with no dependence
    on x; the summand dimensions must then add up to dim M
    (IncompleteMatch otherwise).
    """
    block = m.block
    if block.n < 2:
        raise InvalidParameters("restriction needs at least 2 strands, got %d" % block.n)
    below = _blocks_below(block, m.rep)
    _check_fibers(block, block.int_ops(m.rep, block.n - 2), below)
    return _branch_by_rule(m, _restriction_candidates(m, below))


def _check_fibers(block: ChargeBlock, src_ops, below: dict):
    """Certify the fibers of the block's restriction to n - 1 strands.

    src_ops is block.int_ops(rep, n - 2), and below maps (at least) each
    partition of young_branch_rule to (its level n-1 block, that block's
    int_ops), as _blocks_below does.  For each last letter c, the words
    ending in c are mapped by deleting the letter and relabeling the
    colors so that the content sorts to lam'; the map is injective, so
    equal sizes make it a bijection onto the block of lam'.  Every source
    generator must carry the fiber into itself with the weights of the
    matching target generator, and the fibers per lam' must be counted by
    young_branch_rule.  Raises LoopBraidError otherwise."""
    N = block.N
    by_color = {}
    for i, w in enumerate(block.words):
        by_color.setdefault(w[-1], []).append(i)
    code = [0] * block.dim  # offset of the fiber plus the target index
    fibers = []  # (target int_ops, fiber indices in target order, offset)
    counts = {}
    offset = 0
    for c, indices in sorted(by_color.items()):
        shifted = list(block.comp)
        shifted[c - 1] -= 1
        lam = tuple(sorted((v for v in shifted if v), reverse=True))
        target, ops = below[lam]
        if len(indices) != target.dim:
            raise LoopBraidError("the fiber of color %d in %s has %d words, the block %s %d"
                                 % (c, block.lam, len(indices), lam, target.dim))
        relabel = [0] * N
        for new, old in enumerate(sorted(range(N), key=lambda k: (-shifted[k], k)), 1):
            relabel[old] = new
        order = [0] * target.dim
        for i in indices:
            t = target.index[right_color_action(block.words[i][:-1], tuple(relabel))]
            order[t] = i
            code[i] = offset + t
        fibers.append((ops, order, offset))
        counts[lam] = counts.get(lam, 0) + 1
        offset += target.dim
    for g, src in enumerate(src_ops):
        for ops, order, off in fibers:
            dst = ops[g]
            if [code[src.tgt[i]] for i in order] != [off + t for t in dst.tgt] or \
                    tuple(src.wts[i] for i in order) != dst.wts:
                raise LoopBraidError("the fiber map of %s does not intertwine generator %d"
                                     % (block.lam, g))
    if counts != young_branch_rule(N, block.comp):
        raise LoopBraidError("the fibers of %s do not follow the Young branching rule"
                             % (block.lam,))


def _branch_by_rule(m: ModuleSpec, cands) -> BranchReport:
    """The summands of the restriction of m among the candidates, in
    their order, with the multiplicities of _rule_multiplicity."""
    if m.label is None:
        young = young_branch_rule(m.block.N, m.block.comp)
        mults = [young.get(c.block.lam, 0) for c in cands]
    else:
        mults = [_rule_multiplicity(m.label, c.label) for c in cands]
    total = 0
    summands = []
    for c, mult in zip(cands, mults):
        if mult:
            total += mult * c.dim
            summands.append({"label": c.label_json(), "multiplicity": mult, "dim": c.dim})
    if total != m.dim:
        raise IncompleteMatch("summand dimensions %d != module dimension %d"
                              % (total, m.dim))
    return BranchReport(m.label_json(), m.dim, summands, verified=True)


def _rule_multiplicity(label: HarmonicLabel, sub: HarmonicLabel) -> int:
    """Multiplicity of the harmonic module sub at level n-1 in the
    restriction of the one of label: 1 when sub.lam takes one box from a
    row of length L of label.lam, sub's partition on length L is label's
    minus one box (none left when that class had one color), its
    partition on length L - 1 is label's plus one box ((1) when label.lam
    has no row of length L - 1), and the other classes agree; else 0."""
    mu = {length: p for (length, _), p in zip(multiplicity_classes(label.lam), label.mu)}
    nu = {length: p for (length, _), p in zip(multiplicity_classes(sub.lam), sub.mu)}
    for L in mu:
        k = len(label.lam) - label.lam[::-1].index(L) - 1  # the last row of length L
        if sub.lam == tuple(v for v in label.lam[:k] + (L - 1,) + label.lam[k + 1:] if v):
            break
    else:
        return 0
    for length in set(mu) | set(nu):
        have, want = mu.get(length, ()), nu.get(length, ())
        if length == L:
            ok = have in _add_box(want)
        elif length == L - 1:
            ok = want in _add_box(have)
        else:
            ok = want == have
        if not ok:
            return 0
    return 1


def _add_box(p: tuple) -> list:
    """The partitions one box larger than p."""
    return [p[:i] + (p[i] + 1,) + p[i + 1:] for i in range(len(p))
            if i == 0 or p[i - 1] > p[i]] + [p + (1,)]


def young_branch_rule(N, lam) -> dict:
    """Removable-box prediction with row multiplicities: removing a box
    from a row of length L contributes one copy for every row of length L."""
    out = {}
    padded = tuple(lam) + (0,) * (N - len(lam))
    for i, v in enumerate(padded):
        if v:
            shifted = list(padded)
            shifted[i] -= 1
            key = tuple(sorted((u for u in shifted if u), reverse=True))
            out[key] = out.get(key, 0) + 1
    return out


def verify_young_branching(N, lam, x=Fraction(2)) -> bool:
    """Certify the branching of a Young module by explicit fiber
    isomorphisms (_check_fibers, which raises LoopBraidError where one
    fails)."""
    n = sum(lam)
    if n >= 2:
        rep = TauRep(N, x)
        block = partition_block(N, n, lam)
        _check_fibers(block, block.int_ops(rep, n - 2), _blocks_below(block, rep))
    return True


def branching_graph(N, n_max, x=Fraction(2)) -> dict:
    """Nodes are harmonic labels up to n_max, placed by the weight-space
    projection; edges are the restriction summands of restrict_and_branch:
    each block's fibers are certified once by _check_fibers against the
    blocks one level down, and each module's multiplicities are read off
    the rule."""
    if N not in (2, 3):
        raise InvalidParameters("branching graphs are placed for N = 2 or 3, got %d" % N)
    if n_max < 1:
        raise InvalidParameters("n_max must be at least 1, got %d" % n_max)
    rep = TauRep(N, x)
    nodes, edges = [], []
    # partition -> (block, its int_ops) and -> its harmonic modules at level
    # n - 1; each block's generator list is built once
    below, mods_below = {}, {}
    for n in range(1, n_max + 1):
        level, level_mods = {}, {}
        for lam, _, block, mods in harmonic_blocks(N, n, rep):
            if n < n_max:
                level[lam] = (block, block.int_ops(rep))
                level_mods[lam] = mods
            if n > 1:
                _check_fibers(block, block.int_ops(rep, n - 2), below)
                cands = [c for mu in _reachable_partitions(block) for c in mods_below[mu]]
            for mod in mods:
                nid = "n%d:%s" % (n, mod.label.short())
                nodes.append({"id": nid, "n": n, "lambda": list(lam),
                              "mu": [list(m) for m in mod.label.mu],
                              "dim": mod.dim, "pos": _weight_pos(N, lam)})
                if n < 2:
                    continue
                for summand in _branch_by_rule(mod, cands).summands:
                    label = summand["label"]
                    dst = HarmonicLabel(tuple(label["lambda"]), tuple(map(tuple, label["mu"])))
                    edges.append({"src": nid, "dst": "n%d:%s" % (n - 1, dst.short()),
                                  "multiplicity": summand["multiplicity"],
                                  "dim": summand["dim"]})
        below, mods_below = level, level_mods
    return {"N": N, "n_max": n_max, "nodes": nodes, "edges": edges}


def _weight_pos(N, lam):
    padded = tuple(lam) + (0,) * (N - len(lam))
    if N == 3:
        return [padded[0] - padded[1], padded[1] - padded[2]]
    return [padded[0] - padded[1], 0]


# ---------------------------------------------------------------------------
# Cubic-algebra (BMW-style) relation certificates over the Laurent ring.

class BmwReport:
    __slots__ = ("N", "n", "relations")

    def __init__(self, N: int, n: int, relations: dict):
        self.N = N
        self.n = n
        self.relations = relations

    @property
    def ok(self):
        return all(v["ok"] for v in self.relations.values())

    def to_json(self):
        return {"N": self.N, "n": self.n, "relations": self.relations,
                "ok": self.ok}


def bmw_check(N: int, n: int = 3) -> BmwReport:
    """Certify the braid-image relations of the cubic algebra at r = q as
    exact Laurent identities on the tensor cube.

    The u elements are built both from the displayed closed form and from
    the defining quotient (b - b^-1) / (q - q^-1) with exact polynomial
    division; the two must agree.  Each side of a relation is a short sum
    of terms a q^k P, a an int and P a linalg.CodedPerm with weights +-q^k
    (u_i = 1 - s_i, so u_i b_k u_i has 4 terms and the cubic 8), compared
    by its nonzero int coefficients; Laurent entries are built only for the
    division and for a failing relation's witness.
    """
    if n < 3:
        raise InvalidParameters("the mixed relation needs n >= 3 strands, got %d" % n)
    rep = TauRep(N, None, "q")
    power = ChargeBlock(N, n)
    d = power.dim
    words = power.words
    q = LaurentPoly.gen()
    denom = q - q.inverse()
    ops = CodedPerm.from_ops(power.ops(rep))  # sigma_1, s_1, sigma_2, s_2, ...
    ident = [(1, 0, CodedPerm.identity(d, q))]
    b = {i: [(1, 0, ops[2 * i - 2])] for i in range(1, n)}
    b_inv = {i: [(1, 0, ops[2 * i - 2].inverse())] for i in range(1, n)}
    u = {}
    results = {}
    for i in range(1, n):
        u_from_def = _entries(ident, d)
        quotients = {}  # each distinct entry of b - b^-1 is divided once
        for (r, c), terms in _grouped(_entries(b[i] + _scaled(-1, 0, b_inv[i]), d)).items():
            if terms not in quotients:
                quotients[terms] = LaurentPoly(terms).divexact(denom).terms
            for k, v in quotients[terms].items():
                u_from_def[r, c, k] = u_from_def.get((r, c, k), 0) - v
        u_from_def = {key: v for key, v in u_from_def.items() if v}
        u[i] = ident + [(-1, 0, ops[2 * i - 1])]
        u_struct = _entries(u[i], d)
        results.setdefault("u_definition", {"ok": True})
        if u_from_def != u_struct:
            results["u_definition"] = {"ok": False, "witness": _laurent_witness(
                _laurent(u_from_def), _laurent(u_struct), d, words)}

    def record(name, lhs, rhs):
        if name in results and not results[name]["ok"]:
            return
        lhs, rhs = _entries(lhs, d), _entries(rhs, d)
        if lhs == rhs:
            results.setdefault(name, {"ok": True})
        else:
            results[name] = {"ok": False, "witness": _laurent_witness(_laurent(lhs), _laurent(rhs),
                                                                      d, words)}

    for i in range(1, n):
        record("r1", _product(u[i], b[i]), _scaled(1, -1, u[i]))
    for i, k in ((2, 1), (1, 2)):
        record("r2", _product(u[i], b[k], u[i]), _scaled(1, 1, u[i]))
        record("r2", _product(u[i], b_inv[k], u[i]), _scaled(1, -1, u[i]))
    for i in range(1, n):
        cubic = _product(b[i] + _scaled(-1, -1, ident), b[i] + _scaled(-1, 1, ident),
                         b[i] + _scaled(1, -1, ident))
        record("rloc", cubic, [])
    for i in range(1, n):
        record("u_squared", _product(u[i], u[i]), _scaled(2, 0, u[i]))
    for i, k in ((1, 2), (2, 1)):
        record("tl", _product(u[i], u[k], u[i]), u[i])
    return BmwReport(N, n, results)


def _scaled(a, k, terms):
    """a q^k times a sum of (int coefficient, q exponent, CodedPerm) terms."""
    return [(a * c, k + e, p) for c, e, p in terms]


def _product(*factors):
    """The terms of the product of sums of terms, the factors multiplied in
    the given order."""
    out = factors[0]
    for factor in factors[1:]:
        out = [(a * c, k + e, p * r) for a, k, p in out for c, e, r in factor]
    return out


def _entries(terms, d):
    """{(row, column, q exponent): int coefficient} of a sum of d x d terms,
    zero coefficients left out."""
    acc = {}
    for a, k, p in terms:
        for j, (i, c) in enumerate(zip(p.tgt, p.codes)):
            key = i, j, k + (c >> 1)
            acc[key] = acc.get(key, 0) + (-a if c & 1 else a)
    return {key: v for key, v in acc.items() if v}


def _grouped(entries):
    """{(row, column): ((q exponent, coefficient), ...)} of an _entries map,
    the exponents increasing."""
    terms = {}
    for (i, j, k), v in sorted(entries.items()):
        terms.setdefault((i, j), []).append((k, v))
    return {pos: tuple(t) for pos, t in terms.items()}


def _laurent(entries):
    """{(row, column): LaurentPoly} of an _entries map."""
    return {pos: LaurentPoly(t) for pos, t in _grouped(entries).items()}


def _laurent_witness(lhs, rhs, d, words):
    """The first differing entry of two {(row, column): entry} maps, read
    from the d x d matrices they describe."""
    diff = _first_difference(*(_dense(entries, d) for entries in (lhs, rhs)))
    i, j = diff["position"]
    return {"row_word": "".join(map(str, words[i])), "col_word": "".join(map(str, words[j])),
            "left": diff["left"], "right": diff["right"]}


def _dense(entries, d):
    m = Matrix.zeros(LQ, d, d)
    for (i, j), v in entries.items():
        m.rows[i][j] = v
    return m


# ---------------------------------------------------------------------------
# Exploratory sweep used by the higher-rank conjecture probe.

def harmonic_end_dims(N, n, x) -> list:
    """end_dim for every harmonic module at (N, n, x).

    Each block's generators must pass _require_symmetric (LoopBraidError
    otherwise), so every module is semisimple: end_dim == 1 certifies that
    it is absolutely irreducible, and end_dim > 1 that it is not.  Where
    the generator form (_relabelings_only) holds on a block at x != -1,
    the mixed-cell lemma makes each of its modules nonzero with end_dim 1.
    Elsewhere (at x = -1 the harmonic modules need not be simple), with the
    color swaps commuting with A, B = sum M_i^(m_i), m_i = dim Delta_i, and
    its hom-space orbits count dim End_A(B) = sum m_i m_j dim Hom(M_i, M_j)
    >= sum m_i^2, with equality iff the nonzero M_i have End(M_i) = Q and
    are pairwise non-isomorphic; else end_dim is the projected hom space."""
    out = []
    rep = TauRep(N, x)
    for _, _, block, mods in harmonic_blocks(N, n, rep):
        ops = block.ops(rep)
        _require_symmetric(ops)
        counted = rep.x != -1 and _relabelings_only(block, ops, rep)
        if not counted:
            comps = hom_space(ops, ops, block.dim, block.dim)  # shared by the block's modules
            counted = _swaps_commute(block, ops) and \
                len(comps) == sum(m.label.delta_dim() ** 2 for m in mods if m.dim)
        for mod in mods:
            out.append({"label": mod.label_json(), "dim": mod.dim,
                        "end_dim": int(mod.dim > 0) if counted
                        else _projected_hom_dim(comps, mod, mod)})
    return out
