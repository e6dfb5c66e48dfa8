"""The color-word representations on (C^N)^(x)n: generator actions, charge
blocks, the symmetrizing operator on the first N strands, harmonic
submodules and localization.

A basis vector is a word of colors 1..N.  The braid generator multiplies
by x when the two touched letters agree and otherwise swaps them; the
symmetry generator fixes equal-letter words and swaps with a sign.  Both
preserve the color content of the word, so every computation happens
inside a fixed-content charge block.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InvalidParameters, LoopBraidError
from .linalg import (Matrix, RowSpan, WeightedPerm, _clear_denominators, require_assembly,
                     require_block)
from .rings import LQ, QQ, ZZ, LaurentPoly
from .symmetric import (hook_dim, multinomial, partitions, perm_words,
                        sign, young_symmetrizer_coeffs)


class TauRep:
    """Parameters of the diagonal tensor representation; compared and
    hashed by value.

    form "x": braid weight x on equal colors over the rationals;
    form "q": weights q and 1/q over the Laurent ring (x = q^2 rescale).
    """

    __slots__ = ("N", "x", "form")

    def __init__(self, N: int, x=Fraction(2), form: str = "x"):
        if N < 1:
            raise InvalidParameters("N must be at least 1, got %d" % N)
        if form not in ("x", "q"):
            raise InvalidParameters("unknown form %r (expected x or q)" % (form,))
        if form == "x":
            x = Fraction(x)
            if x == 0:
                raise InvalidParameters("x must be nonzero (sigma_j is singular at x = 0)")
        self.N = N
        self.x = x
        self.form = form

    def _key(self):
        return self.N, self.x, self.form

    def __eq__(self, other):
        if other.__class__ is not TauRep:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def ring(self):
        return QQ if self.form == "x" else LQ

    def weights(self):
        """(equal-color weight, swap weight) for the braid generator."""
        if self.form == "x":
            return self.x, Fraction(1)
        q = LaurentPoly.gen()
        return q, q.inverse()


def _swap(w, j):
    lst = list(w)
    lst[j - 1], lst[j] = lst[j], lst[j - 1]
    return tuple(lst)


def right_color_action(w: tuple, pi: tuple) -> tuple:
    """Relabel every letter by the color permutation pi (1-based images)."""
    return tuple(pi[c - 1] for c in w)


# ---------------------------------------------------------------------------
# Charge blocks.

class ChargeBlock:
    """All words with one fixed color content, in lexicographic order; with
    no content, all N^n words of the tensor power in itertools.product order.

    This is the one place that knows the generator action on words and the
    generator order [sigma_1, s_1, sigma_2, s_2, ...]."""

    def __init__(self, N, n, comp=None):
        self.N = N
        self.n = n
        if comp is None:
            require_assembly(N ** n)
            self.comp = self.lam = None
            self.words = list(itertools.product(range(1, N + 1), repeat=n))
        else:
            if len(comp) != N or sum(comp) != n or min(comp, default=0) < 0:
                raise InvalidParameters("content %s does not fit N, n = %d, %d" % (comp, N, n))
            require_block(multinomial(n, comp))
            self.comp = tuple(comp)
            self.lam = tuple(sorted((c for c in comp if c), reverse=True))
            self.words = _words_with_content(N, comp)
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self):
        return len(self.words)

    def _op(self, j, same, swapped, ring) -> WeightedPerm:
        """Generator on strands j, j+1: a word whose two letters agree is
        scaled by `same`, any other is swapped and scaled by `swapped`."""
        tgt, wts = [], []
        for i, w in enumerate(self.words):
            if w[j - 1] == w[j]:
                tgt.append(i)
                wts.append(same)
            else:
                tgt.append(self.index[_swap(w, j)])
                wts.append(swapped)
        return WeightedPerm(ring, tgt, wts)

    def sigma_op(self, j, rep: TauRep) -> WeightedPerm:
        return self._op(j, *rep.weights(), rep.ring)

    def s_op(self, j, rep: TauRep) -> WeightedPerm:
        return self._op(j, rep.ring.one, -rep.ring.one, rep.ring)

    def ops(self, rep: TauRep, top=None) -> list:
        """[sigma_1, s_1, ..., sigma_top, s_top]; top defaults to n - 1."""
        return self._gens(top, *rep.weights(), rep.ring)

    def int_ops(self, rep: TauRep, top=None, bottom=1) -> list:
        """ops(rep, top) over the integers for the x form, from sigma_bottom
        on: each sigma scaled by the denominator of x, each s as it is.  A
        word in these is the word in ops times den^(its number of sigma
        letters)."""
        if rep.form != "x":
            raise InvalidParameters("integer generator weights need the x form")
        return self._gens(top, rep.x.numerator, rep.x.denominator, ZZ, bottom)

    def _gens(self, top, same, swapped, ring, bottom=1):
        top = self.n - 1 if top is None else top
        one = ring.one
        return [op for j in range(bottom, top + 1)
                for op in (self._op(j, same, swapped, ring), self._op(j, one, -one, ring))]

    def right_op(self, pi: tuple) -> WeightedPerm:
        """Operator of the color relabeling; needs pi to preserve the content."""
        tgt = [self.index[right_color_action(w, pi)] for w in self.words]
        return WeightedPerm(QQ, tgt, [QQ.one] * self.dim)


def _words_with_content(N, comp):
    """Every word with comp[c - 1] letters c, in lexicographic order: the
    least word, then one next-permutation step per further word."""
    w = [c for c in range(1, N + 1) for _ in range(comp[c - 1])]
    words = [tuple(w)]
    for _ in range(multinomial(len(w), comp) - 1):
        i = len(w) - 2
        while w[i] >= w[i + 1]:
            i -= 1
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = w[:i:-1]
        words.append(tuple(w))
    return words


def charge_blocks(N, n):
    """Blocks for every composition, plus the partition index with
    multiplicities; sum over the index of m_lam * dim equals N^n."""
    index = _charge_index(N, n)
    return {comp: ChargeBlock(N, n, comp) for comp in _compositions(n, N)}, index


def _charge_index(N, n):
    """[(lam, N! / prod c_v!)] over the partitions lam of n with at most N
    parts, descending, c_v the number of parts v of lam padded by zeros to
    N parts: the compositions that sort to lam.  The largest block, of the
    most balanced split, is refused before any partition is listed."""
    if n < 0:
        raise InvalidParameters("the number of strands must be nonnegative, got %d" % n)
    k = min(N, n)
    require_block(multinomial(n, [n // k + (i < n % k) for i in range(k)] if k else []))

    def parts(rest, slots, top):  # one level per part: the block limit allows few
        if not rest:
            yield ()
        elif rest <= slots * top:  # else rest does not fit in the slots left
            for first in range(min(rest, top), 0, -1):
                yield from ((first,) + tail for tail in parts(rest - first, slots - 1, first))

    return [(lam, math.perm(N, len(lam)) //
             math.prod(math.factorial(lam.count(v)) for v in set(lam))) for lam in parts(n, N, n)]


def partition_block(N, n, lam) -> ChargeBlock:
    comp = tuple(lam) + (0,) * (N - len(lam))
    return ChargeBlock(N, n, comp)


def harmonic_blocks(N, n, rep: TauRep = None) -> list:
    """[(lam, multiplicity, partition block, harmonic modules)] for every
    partition in the order of the charge index, each block decomposed
    once."""
    out = []
    for lam, mult in _charge_index(N, n):
        block = partition_block(N, n, lam)
        out.append((lam, mult, block, harmonic_decompose(block, rep)))
    return out


def _compositions(n, N):
    """The compositions of n into N parts, lexicographically descending:
    stars and bars (N - 1 bars among n + N - 1 places), read backwards."""
    edges = [(-1,) + bars + (n + N - 1,)
             for bars in itertools.combinations(range(n + N - 1), N - 1)]
    return [tuple(b - a - 1 for a, b in zip(e, e[1:])) for e in reversed(edges)]


# ---------------------------------------------------------------------------
# Full tensor-power images (small n only; blocks are the scalable route).

def full_images(rep: TauRep, n: int) -> dict:
    """Images of all generators on the full N^n-dimensional tensor power."""
    block = ChargeBlock(rep.N, n)
    images = {}
    for j in range(1, n):
        images[("sigma", j)] = block.sigma_op(j, rep)
        images[("s", j)] = block.s_op(j, rep)
    return images


# ---------------------------------------------------------------------------
# The symmetrizer on the first N strands.

def _perm_ops(block: ChargeBlock, ring, k: int):
    """(perm, op) for every perm of S_k, op the product of the symmetry
    generators along the reduced word of perm, with weights in ring."""
    s_ops = {j: block._op(j, ring.one, -ring.one, ring) for j in range(1, k)}
    ident = WeightedPerm.identity(ring, block.dim)
    for perm, word in perm_words(k).items():
        op = ident
        for letter in word:
            op = op * s_ops[letter]
        yield perm, op


def f_columns(N: int, block: ChargeBlock) -> list:
    """The signed sum over S_N of the symmetry-generator actions on the
    first N strands, by its columns: entry j lists the nonzero (row, int
    entry) pairs of column j in increasing row.  Kills words whose prefix
    is not a permutation of 1..N and symmetrizes the rest, so a column has
    at most N! entries.  The symmetry generators carry the weights +-1 in
    every form, so f does not depend on the representation."""
    if block.n < N:
        raise InvalidParameters("the symmetrizer needs N = %d strands, got %d" % (N, block.n))
    cols = [{} for _ in range(block.dim)]
    for perm, op in _perm_ops(block, ZZ, N):
        sgn = sign(perm)
        for col, i, w in zip(cols, op.tgt, op.wts):
            col[i] = col.get(i, 0) + sgn * w
    return [sorted((i, c) for i, c in col.items() if c) for col in cols]


def f_operator(N: int, block: ChargeBlock, rep: TauRep = None) -> Matrix:
    """f_columns as a dense matrix over the ring of rep (the rationals by
    default).  Kept unnormalized (f^2 = N! f)."""
    ring = rep.ring if rep else QQ
    total = Matrix.zeros(ring, block.dim, block.dim)
    for j, col in enumerate(f_columns(N, block)):
        for i, c in col:
            total.rows[i][j] = ring.from_int(c)
    return total


def _apply_columns(cols, vec, width) -> list:
    """The operator with the given columns applied to vec, as a list of
    width entries."""
    out = [0] * width
    for col, v in zip(cols, vec):
        if v:
            for i, c in col:
                out[i] += c * v
    return out


# ---------------------------------------------------------------------------
# Harmonic labels and projectors.

class HarmonicLabel:
    """lam plus one partition per distinct nonzero row length of lam,
    components ordered by strictly decreasing row length; compared and
    hashed by value."""

    __slots__ = ("lam", "mu")

    def __init__(self, lam: tuple, mu: tuple):
        self.lam = lam
        self.mu = mu   # tuple of partitions

    def __eq__(self, other):
        if other.__class__ is not HarmonicLabel:
            return NotImplemented
        return self.lam == other.lam and self.mu == other.mu

    def __hash__(self):
        return hash((self.lam, self.mu))

    def __repr__(self):
        return "HarmonicLabel(lam=%r, mu=%r)" % (self.lam, self.mu)

    def delta_dim(self) -> int:
        out = 1
        for m in self.mu:
            out *= hook_dim(m)
        return out

    def to_json(self):
        return {"lambda": list(self.lam), "mu": [list(m) for m in self.mu]}

    def short(self):
        mus = ",".join("(%s)" % ",".join(map(str, m)) for m in self.mu)
        return "Y[%s]^(%s)" % (",".join(map(str, self.lam)), mus)


def multiplicity_classes(lam) -> list:
    """[(row length, [colors with that multiplicity])] by decreasing length.

    Colors of multiplicity zero are excluded: permuting unused colors acts
    as the identity on the block, so their idempotent component is forced
    trivial.
    """
    classes = {}
    for color, length in enumerate(lam, start=1):
        if length:
            classes.setdefault(length, []).append(color)
    return [(length, classes[length]) for length in sorted(classes, reverse=True)]


def harmonic_labels(lam) -> list:
    classes = multiplicity_classes(lam)
    label_sets = [partitions(len(colors)) for _, colors in classes]
    return [HarmonicLabel(tuple(lam), tuple(mu)) for mu in itertools.product(*label_sets)]


def _projector_columns(block: ChargeBlock, label: HarmonicLabel):
    """(den, cols) for the idempotent E of harmonic_projector: den is the
    least common denominator of its terms c_pi R_pi, and cols[j] maps each
    row to the nonzero int entry of column j of den * E."""
    _require_partition_block(block)
    classes = multiplicity_classes(block.lam)
    if len(classes) != len(label.mu):
        raise InvalidParameters("label %r needs one partition per class" % (label,))
    per_class = []
    for (_, colors), mu in zip(classes, label.mu):
        coeffs = young_symmetrizer_coeffs(mu)
        per_class.append((colors, coeffs))
    terms = []
    for combo in itertools.product(*(c.items() for _, c in per_class)):
        pi = list(range(1, block.N + 1))
        coeff = Fraction(1)
        for (colors, _), (perm, c) in zip(per_class, combo):
            coeff *= c
            for a, b in zip(colors, (colors[perm[i]] for i in range(len(colors)))):
                pi[a - 1] = b
        terms.append((coeff, block.right_op(tuple(pi))))
    den = math.lcm(*(coeff.denominator for coeff, _ in terms))
    cols = [{} for _ in range(block.dim)]
    for coeff, op in terms:
        c = coeff.numerator * (den // coeff.denominator)
        for col, i in zip(cols, op.tgt):
            col[i] = col.get(i, 0) + c
    return den, [{i: c for i, c in col.items() if c} for col in cols]


def harmonic_projector(block: ChargeBlock, label: HarmonicLabel) -> Matrix:
    """Idempotent on the block projecting onto one copy of the label.

    Product over the multiplicity classes of a Young-symmetrizer primitive
    idempotent acting by color relabeling; commutes with every generator
    action.  The dense form of _projector_columns.
    """
    den, cols = _projector_columns(block, label)
    total = Matrix.zeros(QQ, block.dim, block.dim)
    for j, col in enumerate(cols):
        for i, c in col.items():
            total.rows[i][j] = Fraction(c, den)
    return total


class ModuleSpec:
    """A charge block together with a spanning basis of integer rows, None
    for the whole block (and, when it comes from an idempotent E, its
    projector as (den, cols), the integer columns of den * E from
    _projector_columns)."""

    def __init__(self, block: ChargeBlock, rep: TauRep, label, projector, basis_rows=None):
        self.block = block
        self.rep = rep
        self.label = label          # HarmonicLabel, or None for the full block
        self.projector = projector  # (den, cols), or None (identity)
        if basis_rows is None:
            self.span = RowSpan.identity(block.dim, ZZ)
        else:
            self.span = RowSpan(block.dim, ZZ)
            for row in basis_rows:
                self.span.insert(row)

    @property
    def dim(self):
        return self.span.dim

    def label_json(self):
        if self.label is not None:
            return self.label.to_json()
        return {"lambda": list(self.block.lam), "mu": None}

    def contains(self, vec) -> bool:
        return self.span.contains(_clear_denominators(vec)[0])


def _apply_wp(op: WeightedPerm, vec):
    out = [op.ring.zero] * op.n
    for j, v in enumerate(vec):
        if v:
            out[op.tgt[j]] = out[op.tgt[j]] + op.wts[j] * v
    return out


def _require_partition_block(block: ChargeBlock):
    if block.comp is None or block.comp != tuple(sorted(block.comp, reverse=True)):
        raise InvalidParameters("harmonic decomposition needs a partition block, got %s"
                                % (block.comp,))


def harmonic_decompose(block: ChargeBlock, rep: TauRep = None) -> list:
    """One ModuleSpec per primary label; dimensions satisfy the weighted
    sum identity sum(dim Delta * dim piece) = dim block."""
    _require_partition_block(block)
    rep = rep or TauRep(block.N)
    out = []
    # with one color per multiplicity class every projector is the identity
    trivial = all(len(colors) == 1 for _, colors in multiplicity_classes(block.lam))
    for label in harmonic_labels(block.lam):
        if trivial:
            proj, rows = None, None
        else:
            # the rows of den * E^T: positive multiples of the rows of E^T
            proj = _projector_columns(block, label)
            rows = (_dense_column(col, block.dim) for col in proj[1])
        out.append(ModuleSpec(block, rep, label, proj, rows))
    if sum(m.label.delta_dim() * m.dim for m in out) != block.dim:
        raise LoopBraidError("the harmonic modules do not fill the block %s" % (block.lam,))
    return out


def young_module(block: ChargeBlock, rep: TauRep = None) -> ModuleSpec:
    return ModuleSpec(block, rep or TauRep(block.N), None, None)


def _dense_column(col, d):
    out = [0] * d
    for i, c in col.items():
        out[i] = c
    return out


# ---------------------------------------------------------------------------
# Localization along the symmetrizer.

def localize(f_cols, mspec: ModuleSpec):
    """Image of the module under the first-strand symmetrizer, given by
    its f_columns, rewritten as a module for the residual strands
    (generators reindexed down by N).

    Returns (localized ModuleSpec at n - N, ok) where ok records that the
    residual generator actions agree with the level n - N block actions.
    """
    return localize_modules(f_cols, [mspec])[0]


def localize_modules(f_cols, mods) -> list:
    """localize for each module of the block f_cols was built for.

    The target block, its prefix words and the residual generator checks
    do not depend on the module, so they are built once, at the first
    module that the symmetrizer does not annihilate."""
    out = []
    residual = None
    for mspec in mods:
        block = mspec.block
        N = block.N
        if block.n <= N:
            raise InvalidParameters("localizing needs more than N = %d strands, got %d"
                                    % (N, block.n))
        # integer rows: a nonzero multiple of each basis row leaves the image
        # span, its zero test and the residual equalities unchanged; f has
        # integer entries, so the images are integer vectors too
        images = [_apply_columns(f_cols, row, block.dim) for row in mspec.span.int_rows]
        if not any(any(img) for img in images):
            out.append((None, True))  # the module is annihilated
            continue
        if residual is None:
            residual = _residual_checks(f_cols, block, mspec.rep)
        target, prefixed, checks = residual
        projected = [[img[i] for i in prefixed] for img in images]
        ok = all(_apply_columns(cols, row, target.dim) == _apply_wp(dst, via)
                 for cols, dst in checks for row, via in zip(mspec.span.int_rows, projected))
        out.append((ModuleSpec(target, mspec.rep, None, None, projected), ok))
    return out


def _residual_checks(f_cols, block: ChargeBlock, rep: TauRep):
    """(target, prefixed, checks) for localizing modules of the block.

    target is the level n - N block of the residual words, prefixed[t] the
    index in the block of the word 1..N followed by the t-th target word,
    and checks pairs the columns of P f G_{j+N} (P the projection onto
    those words) with the generator G_j of the target, for each j where
    P f G_{j+N} = G_j P f fails on the whole block: where it holds, it
    holds on every module, and only the failing pairs are tested module
    by module.  Both generator lists are ChargeBlock.int_ops, which scale
    the two sides of each equality by one factor."""
    N = block.N
    comp = tuple(v - 1 for v in block.comp)
    if min(comp) < 0:
        raise LoopBraidError("a color missing from %s left a nonzero image" % (block.comp,))
    target = ChargeBlock(N, block.n - N, comp)
    prefix = tuple(range(1, N + 1))
    prefixed = [block.index[prefix + w] for w in target.words]
    # f followed by the prefix projection, its rows renumbered by the target
    row_of = {i: t for t, i in enumerate(prefixed)}
    prefix_cols = [[(row_of[i], c) for i, c in col if i in row_of] for col in f_cols]
    checks = []
    for src, dst in zip(block.int_ops(rep, bottom=N + 1), target.int_ops(rep)):
        cols = [[(i, c * w) for i, c in prefix_cols[t]] for t, w in zip(src.tgt, src.wts)]
        if any(sorted(col) != sorted((dst.tgt[i], dst.wts[i] * c) for i, c in p_col)
               for col, p_col in zip(cols, prefix_cols)):
            checks.append((cols, dst))
    return target, prefixed, checks


def localized_young_dim(N, lam, n) -> int:
    """Predicted dimension of the localized Young module."""
    lam = tuple(lam) + (0,) * (N - len(lam))
    if lam[N - 1] == 0:
        return 0
    shifted = [v - 1 for v in lam]
    return multinomial(n - N, shifted)


def harmonic_dims(N, n) -> dict:
    """{label: dimension} of every harmonic module at (N, n), from one
    harmonic_blocks walk; the dimensions do not depend on x."""
    return {m.label: m.dim for _, _, _, mods in harmonic_blocks(N, n) for m in mods}


def localized_harmonic_prediction(N, label: HarmonicLabel, dims: dict):
    """(predicted label at n - N or None, predicted dimension), the
    dimension read from dims = harmonic_dims(N, n - N).

    Four cases split on the depth-N row length and, when it is 1, on the
    shape of the component attached to the shortest row length.
    """
    lam = tuple(label.lam) + (0,) * (N - len(label.lam))
    if lam[N - 1] == 0:
        return None, 0
    shifted = tuple(v - 1 for v in lam if v > 1)
    if lam[N - 1] > 1:
        target = HarmonicLabel(tuple(v - 1 for v in lam), label.mu)
        return target, dims[target]
    mu_last = label.mu[-1]
    if len(mu_last) > 1:  # (mu_l)_2 > 0
        return None, 0
    target = HarmonicLabel(shifted, label.mu[:-1])
    return target, dims[target]


def tensor_dimension_checks(decomposition) -> dict:
    """Bookkeeping identities for harmonic_blocks(N, n): the blocks fill
    the tensor power and each block's modules fill the block."""
    expected = decomposition[0][2].N ** decomposition[0][2].n
    total = sum(mult * block.dim for _, mult, block, _ in decomposition)
    harmonic_ok = all(sum(m.label.delta_dim() * m.dim for m in mods) == block.dim
                      for _, _, block, mods in decomposition)
    return {"total": total, "expected": expected,
            "young_ok": total == expected, "harmonic_ok": harmonic_ok}
