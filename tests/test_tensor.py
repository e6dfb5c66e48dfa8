import itertools
from fractions import Fraction

import pytest

from helpers import (all_perms, composition_charge_index, dense_harmonic_projector,
                     recursive_compositions, recursive_words_with_content,
                     symmetrized_seed_vector)

from loopbraid.braided import local_rep, tau_loop
from loopbraid.errors import InvalidParameters
from loopbraid.linalg import Matrix, RowSpan
from loopbraid.rings import QQ, ZZ, LaurentPoly
from loopbraid.tensor import (ChargeBlock, HarmonicLabel, TauRep, _charge_index, _compositions,
                              _projector_columns, _words_with_content,
                              charge_blocks, f_columns, f_operator, full_images,
                              harmonic_blocks, harmonic_dims, harmonic_decompose, harmonic_labels,
                              harmonic_projector,
                              localized_young_dim, localized_harmonic_prediction, localize,
                              multiplicity_classes, partition_block,
                              right_color_action,
                              tensor_dimension_checks, young_module)

X2 = TauRep(2, Fraction(2))
X3 = TauRep(3, Fraction(2))


def vec_of(block, pairs):
    v = [QQ.zero] * block.dim
    for word, coeff in pairs:
        v[block.index[tuple(int(c) for c in word)]] = Fraction(coeff)
    return v


def act(block, op, word):
    """(image word, weight) of one basis word under a generator op."""
    i = block.index[word]
    return block.words[op.tgt[i]], op.wts[i]


def u_matrix(block, j, rep):
    """u_j = 1 - s_j."""
    return Matrix.identity(rep.ring, block.dim) - block.s_op(j, rep).to_matrix()


def test_sigma_action_examples():
    # equal colors pick up x; distinct colors swap with coefficient 1
    block = ChargeBlock(3, 3)
    assert act(block, block.sigma_op(1, X3), (1, 1, 2)) == ((1, 1, 2), Fraction(2))
    assert act(block, block.sigma_op(2, X3), (1, 1, 2)) == ((1, 2, 1), Fraction(1))
    # sigma_1 (112 - 121 + 211) = x 112 + 121 - 211
    block = partition_block(2, 3, (2, 1))
    op = block.sigma_op(1, X2)
    v = vec_of(block, [("112", 1), ("121", -1), ("211", 1)])
    out = [QQ.zero] * block.dim
    for j, val in enumerate(v):
        if val:
            out[op.tgt[j]] += op.wts[j] * val
    assert out == vec_of(block, [("112", 2), ("121", 1), ("211", -1)])


def test_s_action_examples():
    block = ChargeBlock(2, 2)
    assert act(block, block.s_op(1, X2), (1, 1)) == ((1, 1), Fraction(1))
    assert act(block, block.s_op(1, X2), (1, 2)) == ((2, 1), Fraction(-1))
    # s_j squares to the identity on every basis word
    for n in (2, 3, 4):
        block = partition_block(2, n, tuple(sorted((n - 1, 1), reverse=True)))
        for j in range(1, n):
            op = block.s_op(j, X2)
            assert (op * op).is_identity()


def test_u_action_examples():
    block = ChargeBlock(2, 2)
    u = u_matrix(block, 1, X2)

    def column(word):
        col = block.index[word]
        return {block.words[r]: u.rows[r][col] for r in range(block.dim) if u.rows[r][col]}
    # u = 1 - s kills equal-letter words and symmetrizes the others
    assert column((1, 1)) == {}
    assert column((1, 2)) == {(1, 2): Fraction(1), (2, 1): Fraction(1)}
    # u^2 = 2u on V (x) V, also on the charge block alone
    assert u * u == u.scale(Fraction(2))
    u11 = u_matrix(ChargeBlock(2, 2, (1, 1)), 1, X2)
    assert u11 * u11 == u11.scale(Fraction(2))


def test_q_form_weights():
    rep = TauRep(2, None, "q")
    q = LaurentPoly.gen()
    block = ChargeBlock(2, 2)
    assert act(block, block.sigma_op(1, rep), (1, 1)) == ((1, 1), q)
    assert act(block, block.sigma_op(1, rep), (1, 2)) == ((2, 1), q.inverse())
    assert act(block, block.s_op(1, rep), (1, 2)) == ((2, 1), -LaurentPoly.const(1))


@pytest.mark.parametrize("N, n", [(2, 4), (3, 4), (4, 3)])
def test_full_images_restrict_to_block_ops(N, n):
    rep = TauRep(N, Fraction(3))
    power = ChargeBlock(N, n)
    assert power.words == list(itertools.product(range(1, N + 1), repeat=n))
    images = full_images(rep, n)
    assert list(images) == [(kind, j) for j in range(1, n) for kind in ("sigma", "s")]
    assert list(images.values()) == power.ops(rep)
    for block in charge_blocks(N, n)[0].values():
        ops = block.ops(rep)
        assert ops == [op for j in range(1, n)
                       for op in (block.sigma_op(j, rep), block.s_op(j, rep))]
        assert block.ops(rep, n - 2) == ops[:2 * (n - 2)]
        for full, op in zip(images.values(), ops):
            for i, w in enumerate(block.words):
                k = power.index[w]
                assert (power.words[full.tgt[k]], full.wts[k]) == \
                    (block.words[op.tgt[i]], op.wts[i])


def test_invalid_tau_parameters():
    for N, form in ((0, "x"), (-1, "q"), (2, "y")):
        with pytest.raises(InvalidParameters):
            TauRep(N, Fraction(2), form)
    with pytest.raises(InvalidParameters):  # sigma_j is singular at x = 0
        TauRep(2, Fraction(0))


def test_invalid_strand_counts():
    with pytest.raises(InvalidParameters):
        charge_blocks(2, -1)
    block = partition_block(2, 2, (1, 1))  # n = N: nothing left to localize
    with pytest.raises(InvalidParameters):
        localize(f_columns(2, block), young_module(block, X2))


def test_charge_blocks_examples():
    block = partition_block(3, 3, (2, 1))
    assert ["".join(map(str, w)) for w in block.words] == ["112", "121", "211"]
    _, index = charge_blocks(2, 3)
    assert dict(index)[(2, 1)] == 2  # compositions (2,1) and (1,2)
    checks = tensor_dimension_checks(harmonic_blocks(3, 4))
    assert checks == {"total": 81, "expected": 81, "young_ok": True, "harmonic_ok": True}


def test_charge_invariance():
    # every generator action preserves the content of a word
    for N, n in ((2, 5), (3, 4), (4, 4)):
        rep = TauRep(N, Fraction(2))
        images = full_images(rep, n)
        words = [tuple(w) for w in itertools.product(range(1, N + 1), repeat=n)]
        for op in images.values():
            for idx, w in enumerate(words):
                assert sorted(words[op.tgt[idx]]) == sorted(w)


def test_right_color_action_examples():
    assert right_color_action((1, 1, 2), (2, 1)) == (2, 2, 1)
    assert right_color_action((1, 2, 3), (1, 2, 3)) == (1, 2, 3)


def test_right_action_commutes_exhaustively():
    # all color permutations against all generators, N <= 3, n <= 5
    for N, n in ((2, 4), (3, 3), (3, 5)):
        rep = TauRep(N, Fraction(2))
        images = full_images(rep, n)
        words = [tuple(w) for w in itertools.product(range(1, N + 1), repeat=n)]
        index = {w: i for i, w in enumerate(words)}
        for perm0 in all_perms(N):
            pi = tuple(p + 1 for p in perm0)
            for op in images.values():
                for idx, w in enumerate(words):
                    # sigma(w . pi) must equal (sigma w) . pi with equal weight
                    lhs_idx = op.tgt[index[right_color_action(w, pi)]]
                    lhs_wt = op.wts[index[right_color_action(w, pi)]]
                    rhs_idx = index[right_color_action(words[op.tgt[idx]], pi)]
                    assert (lhs_idx, lhs_wt) == (rhs_idx, op.wts[idx])


def test_full_images_match_local_rep():
    lb = tau_loop(2, Fraction(2))
    via_kron = local_rep(lb, 3)
    direct = full_images(X2, 3)
    for key in direct:
        assert direct[key] == via_kron[key]


def test_f2_and_f3_closed_forms():
    rep1 = TauRep(2, Fraction(1))
    block = partition_block(2, 3, (2, 1))
    assert f_operator(2, block) == u_matrix(block, 1, rep1)
    rep13 = TauRep(3, Fraction(1))
    block3 = partition_block(3, 3, (1, 1, 1))
    u1 = u_matrix(block3, 1, rep13)
    u2 = u_matrix(block3, 2, rep13)
    assert f_operator(3, block3) == u1 * u2 * u1 - u1


def test_f3_kills_repeated_prefix_and_symmetrizes():
    block = partition_block(3, 4, (2, 1, 1))
    f3 = f_operator(3, block)
    # a repeated prefix dies
    col = block.index[(1, 1, 2, 3)]
    assert all(f3.rows[r][col] == 0 for r in range(block.dim))
    # a permutation prefix symmetrizes
    col = block.index[(1, 2, 3, 1)]
    image = {block.words[r]: f3.rows[r][col]
             for r in range(block.dim) if f3.rows[r][col]}
    expected = {(a, b, c, 1): Fraction(1)
                for (a, b, c) in itertools.permutations((1, 2, 3))}
    assert image == expected


def test_f_sign_and_square():
    for N, lam in ((2, (2, 2)), (3, (2, 1, 1))):
        n = sum(lam)
        block = partition_block(N, n, lam)
        rep = TauRep(N, Fraction(2))
        f = f_operator(N, block)
        for i in range(1, N):
            s = block.s_op(i, rep).to_matrix()
            assert s * f == f.scale(Fraction(-1))
            assert f * s == f.scale(Fraction(-1))
        import math
        assert f * f == f.scale(Fraction(math.factorial(N)))


def test_harmonic_labels_and_classes():
    assert multiplicity_classes((2, 1)) == [(2, [1]), (1, [2])]
    assert multiplicity_classes((2, 1, 1)) == [(2, [1]), (1, [2, 3])]
    labels = harmonic_labels((2, 1, 1))
    assert [l.mu for l in labels] == [((1,), (2,)), ((1,), (1, 1))]
    # a single label when all multiplicities differ
    assert len(harmonic_labels((3, 1))) == 1


def test_harmonic_decompose_trivial_group():
    block = partition_block(2, 3, (2, 1))
    mods = harmonic_decompose(block, X2)
    assert len(mods) == 1 and mods[0].dim == 3


@pytest.mark.parametrize("N,n", [(2, 4), (3, 6), (4, 4)])
def test_whole_block_spans_match_inserted_unit_rows(N, n):
    # young_module and the one-color-per-class pieces start from the
    # identity span; it must be the span the unit rows insert one by one
    trivial = 0
    for lam, _, block, mods in harmonic_blocks(N, n, TauRep(N, Fraction(2))):
        want = RowSpan(block.dim, ZZ)
        for i in range(block.dim):
            want.insert([int(i == j) for j in range(block.dim)])
        spans = [young_module(block).span]
        if all(len(colors) == 1 for _, colors in multiplicity_classes(lam)):
            trivial += 1
            spans += [m.span for m in mods]
        for got in spans:
            assert got.int_rows == want.int_rows and list(got.rows) == list(want.rows)
            assert got.pivot_of == want.pivot_of and got.dim == want.dim
    assert trivial > 0


def test_harmonic_decompose_two_colors():
    block = partition_block(2, 2, (1, 1))
    mods = harmonic_decompose(block, X2)
    dims = {m.label.mu: m.dim for m in mods}
    assert dims == {((2,),): 1, ((1, 1),): 1}
    sym = [m for m in mods if m.label.mu == ((2,),)][0]
    assert sym.contains(vec_of(block, [("12", 1), ("21", 1)]))
    alt = [m for m in mods if m.label.mu == ((1, 1),)][0]
    assert alt.contains(vec_of(block, [("12", 1), ("21", -1)]))


def test_harmonic_basis_matches_listed_vectors():
    # the six listed difference vectors span the antisymmetric piece of the
    # (2,1,1) block exactly
    block = partition_block(3, 4, (2, 1, 1))
    mods = harmonic_decompose(block, X3)
    target = [m for m in mods if m.label.mu == ((1,), (1, 1))][0]
    assert target.dim == 6
    pairs = [("1123", "1132"), ("1213", "1312"), ("1231", "1321"),
             ("2113", "3112"), ("2131", "3121"), ("2311", "3211")]
    from loopbraid.linalg import RowSpan
    listed = RowSpan(block.dim)
    for a, b in pairs:
        v = vec_of(block, [(a, 1), (b, -1)])
        assert target.contains(v)
        listed.insert(v)
    assert listed.dim == 6  # same dimension + containment = same span


def test_harmonic_dimension_identity():
    # block dim = sum over labels of (dim Delta) * (piece dim)
    for N, nmax in ((2, 5), (3, 5)):
        for n in range(1, nmax + 1):
            for lam, _ in charge_blocks(N, n)[1]:
                block = partition_block(N, n, lam)
                mods = harmonic_decompose(block, TauRep(N, Fraction(2)))
                assert sum(m.label.delta_dim() * m.dim for m in mods) == block.dim


def test_projector_commutes_with_actions():
    block = partition_block(3, 4, (2, 1, 1))
    for mod in harmonic_decompose(block, X3):
        if mod.projector is None:
            continue
        e = harmonic_projector(block, mod.label)
        assert e * e == e
        for j in range(1, 4):
            for op in (block.sigma_op(j, X3), block.s_op(j, X3)):
                assert (op.to_matrix() * e) == (e * op.to_matrix())


def _projector_blocks():
    """(block, label) for every harmonic label of every partition block
    with a class of more than one color, at N = 2, 3, 4 and small n."""
    for N, n_max in ((2, 6), (3, 6), (4, 5)):
        for n in range(2, n_max + 1):
            for lam, _ in charge_blocks(N, n)[1]:
                if all(len(colors) == 1 for _, colors in multiplicity_classes(lam)):
                    continue
                block = partition_block(N, n, lam)
                for label in harmonic_labels(lam):
                    yield block, label


def test_projector_columns_are_the_dense_projector():
    # den * E by its columns, the dense projector summed term by term as
    # the oracle; harmonic_projector is the dense form of the columns
    compared = 0
    for block, label in _projector_blocks():
        den, cols = _projector_columns(block, label)
        dense = dense_harmonic_projector(block, label)
        assert den >= 1 and all(type(c) is int and c for col in cols for c in col.values())
        assert [{i: Fraction(c, den) for i, c in col.items()} for col in cols] == \
            [{i: v for i in range(block.dim) if (v := dense.rows[i][j])}
             for j in range(block.dim)]
        assert harmonic_projector(block, label) == dense
        compared += 1
    assert compared > 40


def test_module_spans_match_rational_projector_rows():
    # the integer rows den * E^T span exactly as the rational rows of E^T:
    # the same primitive int_rows and the same reduced rows
    for block, label in _projector_blocks():
        if block.dim > 90:
            continue
        (mod,) = [m for m in harmonic_decompose(block) if m.label == label]
        want = RowSpan(block.dim)
        for row in dense_harmonic_projector(block, label).transpose().rows:
            want.insert(row)
        assert mod.span.int_rows == want.int_rows
        assert list(mod.span.rows) == list(want.rows)
        probe = [Fraction(1, 3) * v for v in want.rows[0]]
        assert mod.contains(probe) and mod.contains(want.int_rows[-1])
    block = partition_block(3, 3, (1, 1, 1))
    young = young_module(block, X3)
    assert young.span.int_rows == [[int(i == j) for j in range(6)] for i in range(6)]


def test_projector_columns_reject_bad_input():
    with pytest.raises(InvalidParameters):
        _projector_columns(ChargeBlock(2, 3, (1, 2)), HarmonicLabel((2, 1), ((1,), (1,))))
    with pytest.raises(InvalidParameters):
        _projector_columns(partition_block(2, 2, (1, 1)), HarmonicLabel((1, 1), ()))
    with pytest.raises(InvalidParameters):
        harmonic_projector(partition_block(2, 2, (1, 1)), HarmonicLabel((1, 1), ((2,), (1,))))


def test_antisymmetric_block_sign_property():
    # on the all-distinct-colors block the braid and symmetry actions agree
    # up to sign
    for n in range(2, 7):
        block = partition_block(n, n, (1,) * n)
        rep = TauRep(n, Fraction(2))
        for j in range(1, n):
            sig = block.sigma_op(j, rep)
            sym = block.s_op(j, rep)
            assert sig.tgt == sym.tgt
            assert all(a == -b for a, b in zip(sig.wts, sym.wts))


def test_localize_examples():
    block = partition_block(2, 3, (2, 1))
    f2 = f_columns(2, block)
    loc, ok = localize(f2, young_module(block, X2))
    assert ok and loc.dim == 1 == localized_young_dim(2, (2, 1), 3)
    # single-row content dies
    row_block = partition_block(2, 4, (4,))
    loc, ok = localize(f_columns(2, row_block), young_module(row_block, X2))
    assert ok and loc is None
    assert localized_young_dim(2, (4,), 4) == 0
    # the antisymmetric harmonic piece of (2,1,1) is killed by f_3
    blk = partition_block(3, 4, (2, 1, 1))
    mods = harmonic_decompose(blk, X3)
    anti = [m for m in mods if m.label.mu == ((1,), (1, 1))][0]
    loc, ok = localize(f_columns(3, blk), anti)
    assert ok and loc is None
    label, dim = localized_harmonic_prediction(3, anti.label, harmonic_dims(3, 1))
    assert label is None and dim == 0


def test_localize_respects_residual_action():
    blk = partition_block(3, 5, (2, 2, 1))
    mods = harmonic_decompose(blk, X3)
    f3 = f_columns(3, blk)
    for mod in mods:
        loc, ok = localize(f3, mod)
        assert ok
        pred_label, pred_dim = localized_harmonic_prediction(3, mod.label, harmonic_dims(3, 2))
        assert (0 if loc is None else loc.dim) == pred_dim


def test_degenerate_parameter_invariant_line():
    # at x = -1 the symmetrized seed spans an invariant line; at generic x
    # it generates the whole block
    from loopbraid.analysis import spin_dimension
    block = partition_block(2, 3, (2, 1))
    seed = symmetrized_seed_vector(block, TauRep(2, Fraction(-1)))
    assert seed == vec_of(block, [("112", 2), ("121", -2), ("211", 2)])
    assert spin_dimension(block, TauRep(2, Fraction(-1)), seed) == 1
    assert spin_dimension(block, X2, seed) == 3


def test_localized_harmonic_case_table():
    # depth > 1 keeps the label, depth 1 with a one-row last component drops
    # it, depth 1 with a taller component dies
    lab = HarmonicLabel((3, 2, 2), ((1,), (2,)))
    target, dim = localized_harmonic_prediction(3, lab, harmonic_dims(3, 4))
    assert target == HarmonicLabel((2, 1, 1), ((1,), (2,))) and dim == 6
    lab = HarmonicLabel((2, 2, 1), ((2,), (1,)))
    target, dim = localized_harmonic_prediction(3, lab, harmonic_dims(3, 2))
    assert target == HarmonicLabel((1, 1), ((2,),)) and dim == 1
    lab = HarmonicLabel((2, 2, 1), ((1, 1), (1,)))
    target, dim = localized_harmonic_prediction(3, lab, harmonic_dims(3, 2))
    assert target == HarmonicLabel((1, 1), ((1, 1),)) and dim == 1
    lab = HarmonicLabel((2, 1, 1), ((1,), (1, 1)))
    assert localized_harmonic_prediction(3, lab, harmonic_dims(3, 1)) == (None, 0)
    lab = HarmonicLabel((2, 2), ((2,),))
    assert localized_harmonic_prediction(3, lab, harmonic_dims(3, 1)) == (None, 0)  # depth < N


def f_operator_blocks(N, n):
    """The symmetrizer on every partition block at (N, n), keyed by content."""
    out = {}
    for lam, _ in charge_blocks(N, n)[1]:
        block = partition_block(N, n, lam)
        out[block.comp] = f_operator(N, block)
    return out


def test_f_operator_blocks_keys():
    out = f_operator_blocks(2, 3)
    assert set(out) == {(3, 0), (2, 1)}
    assert all(m.nrows == m.ncols for m in out.values())


@pytest.mark.parametrize("N", range(1, 6))
def test_the_index_and_words_match_the_recursive_listing(N):
    # the partitions with their counts, the compositions and every block's
    # words, in the order of the recursive versions they replaced
    for n in range(9):
        assert _charge_index(N, n) == composition_charge_index(N, n)
        comps = list(_compositions(n, N))
        assert comps == list(recursive_compositions(n, N))
        for comp in comps:
            assert _words_with_content(N, comp) == recursive_words_with_content(N, comp)
