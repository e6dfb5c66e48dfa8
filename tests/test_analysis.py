import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BlockOp, _center_dim, _closure, _f_blockop, algebra_span, closure_reports,
                     closure_wedderburn_pieces, collapsed_generators, dense_bmw_check,
                     dense_is_e_null, dense_localize, fraction_branch, fraction_localize,
                     gram_radical_dim, laurent_bmw_check, partitions_max_rows,
                     projected_end_dims, trace_form)
from loopbraid import analysis
from loopbraid.analysis import (bmw_check,
                                branching_graph, end_dim, harmonic_end_dims,
                                hom_dim, hom_space, is_e_null, is_irreducible,
                                localization_report, restrict_and_branch, semisimplicity_check,
                                spin_dimension, verify_young_branching,
                                young_branch_rule, _dense, _certified_image, _laurent_witness,
                                _project_hom, _relabelings_only, _weight_pos)
from loopbraid.errors import InvalidParameters, LoopBraidError, NotIdempotent
from loopbraid.linalg import Matrix, RowSpan, WeightedPerm, rank
from loopbraid.rings import QQ, ZZ, LaurentPoly
from loopbraid.symmetric import multinomial, partitions
from loopbraid.tensor import (ChargeBlock, HarmonicLabel, TauRep, charge_blocks, f_columns,
                              f_operator, harmonic_blocks, harmonic_decompose, harmonic_projector,
                              localize, localize_modules, multiplicity_classes, partition_block,
                              young_module)
from loopbraid.words import _first_difference

X2 = TauRep(2, Fraction(2))
X3 = TauRep(3, Fraction(2))


def _vec(block, pairs):
    v = [QQ.zero] * block.dim
    for word, coeff in pairs:
        v[block.index[tuple(int(c) for c in word)]] = Fraction(coeff)
    return v


# ---------------------------------------------------------------------------
# Algebra spans.

def test_algebra_span_identity_only():
    span = algebra_span([Matrix.identity(QQ, 3)])
    assert len(span.basis) == 1


def test_algebra_span_two_by_two():
    # swap and signed swap on the two-color block generate {Id, swap}
    block = ChargeBlock(2, 2, (1, 1))
    ops = [block.sigma_op(1, X2), block.s_op(1, X2)]
    span = algebra_span(ops)
    assert len(span.basis) == 2


def test_algebra_span_full_space_matches_blockwise_sum():
    # on the full tensor cube the span dimension equals the sum of the
    # per-partition-block span dimensions
    from loopbraid.tensor import full_images
    images = full_images(X2, 3)
    full = algebra_span(list(images.values()))
    per_block = 0
    for lam, _ in charge_blocks(2, 3)[1]:
        block = partition_block(2, 3, lam)
        ops = [block.sigma_op(j, X2) for j in range(1, 3)] + \
              [block.s_op(j, X2) for j in range(1, 3)]
        per_block += len(algebra_span(ops).basis)
    assert len(full.basis) == per_block == 10


# ---------------------------------------------------------------------------
# Hom and End.

def test_end_dim_irreducible_block():
    block = partition_block(2, 3, (2, 1))
    assert end_dim(young_module(block, X2)) == 1


def test_end_dim_counts_summands():
    # the two-color block at n=2 splits into two non-isomorphic lines
    block = ChargeBlock(2, 2, (1, 1))
    assert end_dim(young_module(block, X2)) == 2


def test_hom_dim_distinct_lines_is_zero():
    block = partition_block(2, 2, (1, 1))
    mods = harmonic_decompose(block, X2)
    assert hom_dim(mods[0], mods[1]) == 0
    assert hom_dim(mods[0], mods[0]) == 1


def test_end_of_double_module_is_four():
    # M (+) M realized by the two composition blocks of the same partition
    b1 = ChargeBlock(2, 3, (2, 1))
    b2 = ChargeBlock(2, 3, (1, 2))
    m1 = young_module(b1, X2)
    m2 = young_module(b2, X2)
    total = end_dim(m1) + end_dim(m2) + hom_dim(m1, m2) + hom_dim(m2, m1)
    assert total == 4


def test_is_irreducible_examples():
    assert is_irreducible(young_module(partition_block(2, 3, (2, 1)), X2))
    # degenerate parameter: the symmetrized line splits off
    xm1 = TauRep(2, Fraction(-1))
    assert not is_irreducible(young_module(partition_block(2, 3, (2, 1)), xm1))
    # a block that is a direct sum of two lines is reducible
    assert not is_irreducible(young_module(ChargeBlock(2, 2, (1, 1)), X2))


def test_harmonics_irreducible_small():
    for n in (2, 3, 4):
        for lam, _ in charge_blocks(2, n)[1]:
            for mod in harmonic_decompose(partition_block(2, n, lam), X2):
                assert is_irreducible(mod)


def test_is_e_null_examples():
    block = partition_block(2, 2, (1, 1))
    mods = harmonic_decompose(block, X2)
    f2 = f_columns(2, block)
    anti = [m for m in mods if m.label.mu == ((1, 1),)][0]
    sym = [m for m in mods if m.label.mu == ((2,),)][0]
    assert is_e_null(anti, f2)
    assert not is_e_null(sym, f2)
    b21 = partition_block(2, 3, (2, 1))
    assert not is_e_null(young_module(b21, X2), f_columns(2, b21))


def test_f3_null_family():
    for n in (4, 5, 6):
        lam = (n - 2, 1, 1)
        block = partition_block(3, n, lam)
        f3 = f_columns(3, block)
        mods = harmonic_decompose(block, X3)
        anti = [m for m in mods if m.label.mu == ((1,), (1, 1))][0]
        sym = [m for m in mods if m.label.mu == ((1,), (2,))][0]
        assert is_e_null(anti, f3)
        assert not is_e_null(sym, f3)


# ---------------------------------------------------------------------------
# Branching.

def test_young_branch_rule_multiplicities():
    assert young_branch_rule(2, (2, 1)) == {(1, 1): 1, (2,): 1}
    assert young_branch_rule(2, (2, 2)) == {(2, 1): 2}
    assert young_branch_rule(3, (2, 1, 1)) == {(1, 1, 1): 1, (2, 1): 2}


def test_verify_young_branching_sweep():
    for N, nmax in ((2, 5), (3, 5)):
        for n in range(2, nmax + 1):
            for lam, _ in charge_blocks(N, n)[1]:
                assert verify_young_branching(N, lam)


def test_restrict_young_module_by_traces():
    block = partition_block(2, 4, (2, 2))
    report = restrict_and_branch(young_module(block, X2))
    assert report.verified
    assert report.summands == [{"label": {"lambda": [2, 1], "mu": None},
                                "multiplicity": 2, "dim": 3}]


def test_restrict_harmonic_case_vi():
    # the symmetric piece of (2,1,1) restricts to the full (2,1) module
    # plus the two deepest harmonic pieces
    block = partition_block(3, 4, (2, 1, 1))
    mods = harmonic_decompose(block, X3)
    sym = [m for m in mods if m.label.mu == ((1,), (2,))][0]
    report = restrict_and_branch(sym)
    assert report.verified
    got = {(tuple(s["label"]["lambda"]), tuple(tuple(m) for m in s["label"]["mu"])):
           s["multiplicity"] for s in report.summands}
    assert got == {((2, 1), ((1,), (1,))): 1,
                   ((1, 1, 1), ((3,),)): 1,
                   ((1, 1, 1), ((2, 1),)): 1}


def test_restrict_harmonic_2_2_1():
    block = partition_block(3, 5, (2, 2, 1))
    mods = harmonic_decompose(block, X3)
    sym = [m for m in mods if m.label.mu == ((2,), (1,))][0]
    assert sym.dim == 15
    report = restrict_and_branch(sym)
    got = {(tuple(s["label"]["lambda"]), tuple(tuple(m) for m in s["label"]["mu"]))
           for s in report.summands}
    assert got == {((2, 1, 1), ((1,), (2,))),
                   ((2, 1, 1), ((1,), (1, 1))),
                   ((2, 2), ((2,),))}
    # the listed element lies in the module and its fiber lands in the
    # symmetric piece of (2,2)
    v = _vec(block, [("11223", 1), ("22113", 1)])
    assert sym.contains(v)
    # acting with the last braid generator gives the listed image
    op = block.sigma_op(4, X3)
    out = [QQ.zero] * block.dim
    for j, val in enumerate(v):
        if val:
            out[op.tgt[j]] += op.wts[j] * val
    assert out == _vec(block, [("11232", 1), ("22131", 1)])
    # and the element generates the whole 15-dimensional module
    assert spin_dimension(block, X3, v) == 15


def test_branching_graph_small():
    graph = branching_graph(2, 2, Fraction(2))
    assert len(graph["nodes"]) == 4
    assert len(graph["edges"]) == 3
    for node in graph["nodes"]:
        if node["n"] < 2:
            continue
        out_dim = sum(e["multiplicity"] * e["dim"] for e in graph["edges"]
                      if e["src"] == node["id"])
        assert out_dim == node["dim"]


def test_branching_graph_case_vi_out_degree():
    graph = branching_graph(3, 4, Fraction(2))
    node = [n for n in graph["nodes"]
            if n["lambda"] == [2, 1, 1] and n["mu"] == [[1], [2]]][0]
    assert len([e for e in graph["edges"] if e["src"] == node["id"]]) == 3


def test_branching_graph_rejects_bad_input():
    for N, n_max in ((4, 2), (1, 2), (2, 0), (3, -1)):
        with pytest.raises(InvalidParameters):
            branching_graph(N, n_max)


def _two_loop_branching_graph(N, n_max, x):
    """branching_graph as two walks: every level's nodes, then the edges
    of each module restricted through restrict_and_branch."""
    rep_nodes = []
    node_ids = {}
    for n in range(1, n_max + 1):
        for lam, _ in charge_blocks(N, n)[1]:
            for mod in harmonic_decompose(partition_block(N, n, lam), TauRep(N, x)):
                nid = "n%d:%s" % (n, mod.label.short())
                node_ids[(n, mod.label)] = nid
                rep_nodes.append({"id": nid, "n": n, "lambda": list(lam),
                                  "mu": [list(m) for m in mod.label.mu],
                                  "dim": mod.dim, "pos": _weight_pos(N, lam)})
    edges = []
    for n in range(2, n_max + 1):
        for lam, _ in charge_blocks(N, n)[1]:
            for mod in harmonic_decompose(partition_block(N, n, lam), TauRep(N, x)):
                for summand in restrict_and_branch(mod).summands:
                    tgt = HarmonicLabel(tuple(summand["label"]["lambda"]),
                                        tuple(tuple(m) for m in summand["label"]["mu"]))
                    edges.append({"src": node_ids[(n, mod.label)],
                                  "dst": node_ids[(n - 1, tgt)],
                                  "multiplicity": summand["multiplicity"],
                                  "dim": summand["dim"]})
    return {"N": N, "n_max": n_max, "nodes": rep_nodes, "edges": edges}


# at x = -1, sigma_j = -s_j: the restriction characters cannot separate the
# candidates from n = 3 on, but the rule needs no characters
@pytest.mark.parametrize("N,n_max,x", [(N, n_max, x) for N, n_max in ((2, 6), (3, 5))
                                       for x in (Fraction(2), Fraction(-1), Fraction(7, 2))]
                         + [(2, 2, Fraction(-1)), (3, 2, Fraction(-1))], ids=str)
def test_branching_graph_matches_two_loop_oracle(N, n_max, x):
    assert branching_graph(N, n_max, x) == _two_loop_branching_graph(N, n_max, x)


def _recorded_decompositions(monkeypatch):
    """(n, lam) of every harmonic_decompose call made through any module
    that imports it."""
    from loopbraid import cli, tensor
    from loopbraid import analysis as analysis_module
    calls = []

    def recorded(block, rep=None):
        calls.append((block.n, block.lam))
        return harmonic_decompose(block, rep)

    for module in (tensor, analysis_module, cli):
        if hasattr(module, "harmonic_decompose"):
            monkeypatch.setattr(module, "harmonic_decompose", recorded)
    return calls


def test_branching_graph_decomposes_each_block_once(monkeypatch):
    calls = _recorded_decompositions(monkeypatch)
    branching_graph(3, 5, Fraction(2))
    assert sorted(calls) == sorted({(n, lam) for n in range(1, 6)
                                    for lam, _ in charge_blocks(3, n)[1]})
    assert len(calls) == 15


@pytest.mark.parametrize("argv,count", [
    (("branch", "--N", "3", "--nmax", "6"), 22),
    (("decompose", "--N", "3", "--n", "6", "--basis"), 7),
    # the 7 blocks at n = 6, and the 3 at n - N = 3 for the predicted dimensions
    (("localize", "--N", "3", "--n", "6"), 10),
])
def test_commands_decompose_each_block_once(monkeypatch, capsys, argv, count):
    from loopbraid.cli import dispatch
    calls = _recorded_decompositions(monkeypatch)
    assert dispatch(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == count


# ---------------------------------------------------------------------------
# Semisimplicity and localization counts.

def test_semisimplicity_examples():
    out = semisimplicity_check(2, 2, Fraction(2))
    assert out == {"radical_dim": 0, "center_dim": 3, "algebra_dim": 3}
    out = semisimplicity_check(2, 3, Fraction(2))
    assert out["radical_dim"] == 0
    # simple count equals the number of distinct harmonic modules
    labels = set()
    for lam, _ in charge_blocks(2, 3)[1]:
        for mod in harmonic_decompose(partition_block(2, 3, lam), X2):
            labels.add((mod.label.lam, mod.label.mu))
    assert out["center_dim"] == len(labels) == 2


def test_identity_algebra_trivial_case():
    # one-dimensional identity algebra: zero radical, center 1
    ident = BlockOp([WeightedPerm(ZZ, range(3), [1] * 3)])
    basis, _ = _closure([ident], [ident])
    assert len(basis) == 1
    assert trace_form(basis) == [[Fraction(3)]]
    assert gram_radical_dim(basis) == 0
    assert _center_dim(basis, basis) == 1


def _dense_trace_product(a, b):
    """tr(a b) of two BlockOps over every (i, j) cell of each block."""
    acc = Fraction(0)
    for ma, mb in zip(a.mats, b.mats):
        ra, rb = _block_rows(ma), _block_rows(mb)
        for i in range(len(ra)):
            for j in range(len(ra)):
                if ra[i][j] and rb[j][i]:
                    acc += ra[i][j] * rb[j][i]
    return acc


def _block_rows(m):
    """A block (WeightedPerm, Matrix or list of rows) as dense rows."""
    if isinstance(m, WeightedPerm):
        m = m.to_matrix()
    return m.rows if isinstance(m, Matrix) else m


# (N, n, x) of the semisimple and localize benchmark cases small enough
# for the dense oracle; localize also checks the f b f basis of eAe.
@pytest.mark.parametrize("N,n,x,localize", [
    (2, 4, Fraction(2), False), (2, 4, Fraction(3), False), (3, 3, Fraction(2), False),
    (2, 4, Fraction(2), True)])
def test_trace_form_matches_dense_oracle(N, n, x, localize):
    blocks, gens, ident, rep = collapsed_generators(N, n, x)
    basis, _ = _closure(gens, [ident])
    if localize:
        f = _f_blockop(N, blocks, rep)
        basis = [f * b * f for b in basis]
    gram = trace_form(basis)
    assert gram == [[_dense_trace_product(a, b) for b in basis] for a in basis]
    assert any(v for row in gram for v in row)


def test_localization_triangle_counts():
    rep = localization_report(2, 2, Fraction(2))
    assert rep["simple_count"] == 3
    assert rep["localized_count"] == 1
    assert rep["quotient_count"] == 2
    assert rep["triangle_ok"]
    assert localization_report(2, 3, Fraction(2))["triangle_ok"]


def test_localization_identity_idempotent_trivial():
    # with e = 1 the localized algebra is everything and the quotient dies
    blocks, gens, ident, rep = collapsed_generators(2, 2, Fraction(2))
    basis, _ = _closure(gens, [ident])
    count = _center_dim(basis, gens)
    e = ident
    basis_eae = basis  # e b e = b
    assert _center_dim(basis_eae, basis_eae) == count


def test_lii_multiplicities_match_across_localization():
    # composition multiplicities survive localization: the delta dimension
    # of a surviving label is unchanged, and the localized block dimensions
    # reconcile with the harmonic identity one level down
    from loopbraid.tensor import harmonic_dims, localized_harmonic_prediction, localize
    for n in (3, 4):
        dims = harmonic_dims(2, n - 2)
        for lam, _ in charge_blocks(2, n)[1]:
            block = partition_block(2, n, lam)
            f2 = f_columns(2, block)
            for mod in harmonic_decompose(block, X2):
                loc, ok = localize(f2, mod)
                assert ok
                target, pred = localized_harmonic_prediction(2, mod.label, dims)
                assert (0 if loc is None else loc.dim) == pred
                if target is not None:
                    assert target.delta_dim() == mod.label.delta_dim()


def test_li_distinct_simples_localize_distinctly():
    from loopbraid.tensor import harmonic_dims, localized_harmonic_prediction
    for n in (3, 4, 5):
        targets = []
        dims = harmonic_dims(2, n - 2)
        for lam, _ in charge_blocks(2, n)[1]:
            for mod in harmonic_decompose(partition_block(2, n, lam), X2):
                target, dim = localized_harmonic_prediction(2, mod.label, dims)
                if dim:
                    targets.append(target)
        assert len(targets) == len(set(targets))


# ---------------------------------------------------------------------------
# Cubic algebra certificates.

def test_bmw_two_colors_all_relations():
    report = bmw_check(2)
    assert report.ok
    assert {k for k in report.relations} == \
        {"u_definition", "r1", "r2", "rloc", "u_squared", "tl"}


def test_bmw_three_colors_fails_r2_with_witness():
    report = bmw_check(3)
    assert not report.ok
    assert not report.relations["r2"]["ok"]
    witness = report.relations["r2"]["witness"]
    assert witness is not None and "row_word" in witness
    # everything except the mixed relation and its TL consequence holds
    assert report.relations["r1"]["ok"]
    assert report.relations["rloc"]["ok"]
    assert report.relations["u_squared"]["ok"]
    assert not report.relations["tl"]["ok"]


def test_rloc_cubic_expansion_on_two_strands():
    # (b - 1/q)(b - q)(b + 1/q) = 0 already on the 4x4 braiding
    from loopbraid.tensor import full_images
    rep = TauRep(2, None, "q")
    b = full_images(rep, 2)[("sigma", 1)].to_matrix()
    q = LaurentPoly.gen()
    qi = q.inverse()
    ident = Matrix.identity(b.ring, 4)
    prod = (b - ident.scale(qi)) * (b - ident.scale(q)) * (b + ident.scale(qi))
    assert prod == Matrix.zeros(b.ring, 4, 4)


# ---------------------------------------------------------------------------
# Exploratory sweep plumbing.

def test_harmonic_end_dims_shape():
    out = harmonic_end_dims(2, 3, Fraction(2))
    assert all(set(e) == {"label", "dim", "end_dim"} for e in out)
    assert all(e["end_dim"] == 1 for e in out)


@pytest.mark.parametrize("x", [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(-1)], ids=str)
def test_harmonic_end_dims_match_per_module_end_dim(x):
    # one hom space per block, projected per label, gives each module's end_dim
    for N, n in ((2, 4), (3, 4), (3, 5)):
        out = harmonic_end_dims(N, n, x)
        mods = [m for lam, _ in charge_blocks(N, n)[1]
                for m in harmonic_decompose(partition_block(N, n, lam), TauRep(N, x))]
        assert [e["label"] for e in out] == [m.label_json() for m in mods]
        assert [e["dim"] for e in out] == [m.dim for m in mods]
        assert [e["end_dim"] for e in out] == [end_dim(m) for m in mods]


# ---------------------------------------------------------------------------
# Diff test of the sparse harmonic projection against the dense E X E it
# replaced, kept here as a test-only oracle.

def _dense_project_hom(components, e_tgt, e_src, d_src, d_tgt):
    """Dimension of span{E_tgt X E_src}, each X a dense d_tgt x d_src matrix."""
    span = RowSpan(d_src * d_tgt)
    dim = 0
    for comp in components:
        if e_tgt is None and e_src is None:
            vec = [Fraction(0)] * (d_src * d_tgt)
            for cell, f in comp.items():
                vec[cell] = f
        else:
            x = [[Fraction(0)] * d_src for _ in range(d_tgt)]
            for cell, f in comp.items():
                x[cell // d_src][cell % d_src] = f
            if e_tgt is not None:
                x = [[sum(e_tgt.rows[a][c] * x[c][b] for c in range(d_tgt) if x[c][b])
                      for b in range(d_src)] for a in range(d_tgt)]
            if e_src is not None:
                x = [[sum(x[a][c] * e_src.rows[c][b] for c in range(d_src) if x[a][c])
                      for b in range(d_src)] for a in range(d_tgt)]
            vec = [x[a][b] for a in range(d_tgt) for b in range(d_src)]
        if span.insert(vec):
            dim += 1
    return dim


@pytest.mark.parametrize("N,n", [(2, n) for n in range(2, 7)] + [(3, n) for n in range(3, 7)]
                         + [(4, n) for n in range(4, 6)])
def test_sparse_projection_matches_dense_oracle(N, n):
    rep = TauRep(N, Fraction(2))
    projected = 0
    for lam, _ in charge_blocks(N, n)[1]:
        block = partition_block(N, n, lam)
        d = block.dim
        mods = harmonic_decompose(block, rep)
        ops = block.ops(rep)
        comps = hom_space(ops, ops, d, d)
        # End of every module; Hom between every pair of modules and the
        # whole block (projector None) where the block is small.  Each
        # projector as (integer columns, dense harmonic_projector).
        projectors = [(m.projector, None if m.projector is None
                       else harmonic_projector(block, m.label)) for m in mods]
        pairs = [(e, e) for e in projectors]
        if d <= 12:
            projectors.append((None, None))
            pairs = [(a, b) for a in projectors for b in projectors]
        for (e_tgt, dense_tgt), (e_src, dense_src) in pairs:
            assert _project_hom(comps, e_tgt, e_src, d, d) == \
                _dense_project_hom(comps, dense_tgt, dense_src, d, d)
            projected += e_tgt is not None or e_src is not None
    assert projected > 0 or N == 2


# ---------------------------------------------------------------------------
# Diff test of the orbit walk in hom_space against the union-find it
# replaced, kept here as a test-only oracle.

def _union_find_hom_space(ops_src, ops_tgt, d_src, d_tgt):
    """Hom-space basis by a union-find over cells with path-compressed
    Fraction factors; a root is dead once a cycle product disagrees."""
    size = d_src * d_tgt
    parent = list(range(size))
    factor = [Fraction(1)] * size
    dead = set()

    def find_fast(i):
        # value[node] = factor[node] * value[parent[node]]; compress with
        # suffix products so factors stay correct
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        acc = Fraction(1)
        for node in reversed(path):
            acc = factor[node] * acc
            parent[node] = i
            factor[node] = acc
        return (i, factor[path[0]]) if path else (i, Fraction(1))

    for op_s, op_t in zip(ops_src, ops_tgt):
        for a in range(d_tgt):
            ta = op_t.tgt[a]
            wa = op_t.wts[a]
            for b in range(d_src):
                c1 = a * d_src + b
                c2 = ta * d_src + op_s.tgt[b]
                ratio = wa / op_s.wts[b]
                r1, f1 = find_fast(c1)
                r2, f2 = find_fast(c2)
                if r1 == r2:
                    if f2 != ratio * f1:
                        dead.add(r1)
                else:
                    parent[r2] = r1
                    factor[r2] = ratio * f1 / f2
                    if r2 in dead:
                        dead.discard(r2)
                        dead.add(r1)
    comps = {}
    for cell in range(size):
        root, f = find_fast(cell)
        comps.setdefault(root, {})[cell] = f
    live_roots = set()
    for root in comps:
        r, _ = find_fast(root)
        if r not in dead:
            live_roots.add(root)
    return [comps[r] for r in sorted(live_roots)]


def _hom_grid():
    """(N, n, block pairs): every pair of partition blocks at the small
    sizes, and each block with itself up to (2, 6) and (3, 5)."""
    for N, n in ((2, 4), (3, 4), (3, 5), (4, 4)):
        blocks = [partition_block(N, n, lam) for lam, _ in charge_blocks(N, n)[1]]
        yield N, n, [(a, b) for a in blocks for b in blocks]
    for N, n in ((2, 2), (2, 3), (2, 5), (2, 6), (3, 3)):
        yield N, n, [(b, b) for b in (partition_block(N, n, lam)
                                      for lam, _ in charge_blocks(N, n)[1])]


@pytest.mark.parametrize("x", [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(-1),
                               Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-3, 2)],
                         ids=str)
def test_orbit_walk_matches_union_find_oracle(x):
    dead_cells = {}
    for N, n, pairs in _hom_grid():
        rep = TauRep(N, x)
        for src, tgt in pairs:
            args = (src.ops(rep), tgt.ops(rep), src.dim, tgt.dim)
            walk = hom_space(*args)
            _assert_same_components(walk, _fraction_hom_space(*args))
            oracle = sorted(_union_find_hom_space(*args), key=min)
            assert len(walk) == len(oracle)
            # ordered by least cell and scaled to 1 there
            assert [min(c) for c in walk] == sorted(min(c) for c in walk)
            assert all(c[min(c)] == 1 for c in walk)
            for mine, theirs in zip(walk, oracle):
                assert mine.keys() == theirs.keys()
                ratio = mine[min(mine)] / theirs[min(mine)]
                assert all(mine[c] == ratio * theirs[c] for c in mine)
            dead = src.dim * tgt.dim - sum(len(c) for c in walk)
            dead_cells[N, n] = dead_cells.get((N, n), 0) + dead
    if x == 2:
        assert dead_cells[3, 4] > 0


# ---------------------------------------------------------------------------
# Diff tests of the integer orbit codes in hom_space against the Fraction
# walk they replaced, kept here as a test-only oracle.

def _fraction_hom_space(ops_src, ops_tgt, d_src, d_tgt):
    """The orbit walk of hom_space with every value a Fraction."""
    moves = [(t.tgt, t.wts, s.tgt, [Fraction(1) / w for w in s.wts])
             for s, t in zip(ops_src, ops_tgt)]
    value = [None] * (d_src * d_tgt)
    basis = []
    for start in range(len(value)):
        if value[start] is not None:
            continue
        value[start] = Fraction(1)
        orbit = [start]
        stack = [start]
        live = True
        while stack:
            a, b = divmod(stack.pop(), d_src)
            v = value[a * d_src + b]
            for t_tgt, t_wts, s_tgt, s_inv in moves:
                cell = t_tgt[a] * d_src + s_tgt[b]
                w = t_wts[a] * s_inv[b] * v
                if value[cell] is None:
                    value[cell] = w
                    orbit.append(cell)
                    stack.append(cell)
                elif value[cell] != w:
                    live = False
        if live:
            basis.append({cell: value[cell] for cell in orbit})
    return basis


def _assert_same_components(walk, oracle):
    """Same components in the same order, each with the same cells in the
    same order and equal Fraction values."""
    assert [list(c) for c in walk] == [list(c) for c in oracle]
    assert walk == oracle
    assert all(type(v) is Fraction for c in walk for v in c.values())


_BASES = [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(-2), Fraction(1, 3),
          Fraction(-3, 2), Fraction(1), Fraction(-1)]


@st.composite
def _monomial_op_pairs(draw):
    """Generator pairs (source op, target op) with weights in
    {+-1, +-b, +-1/b}, b shared by all of them."""
    b = draw(st.sampled_from(_BASES))
    weight = st.sampled_from([Fraction(1), Fraction(-1), b, -b, 1 / b, -1 / b])
    d_src, d_tgt = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def op(d):
        return WeightedPerm(QQ, draw(st.permutations(range(d))),
                            draw(st.lists(weight, min_size=d, max_size=d)))

    pairs = [(op(d_src), op(d_tgt)) for _ in range(draw(st.integers(1, 3)))]
    return [s for s, _ in pairs], [t for _, t in pairs], d_src, d_tgt


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_monomial_op_pairs())
def test_orbit_codes_match_fraction_walk(args):
    _assert_same_components(hom_space(*args), _fraction_hom_space(*args))


@pytest.mark.parametrize("weights", [(Fraction(2), Fraction(3)), (Fraction(2), Fraction(6)),
                                     (Fraction(4), Fraction(2)), (Fraction(2), Fraction(0)),
                                     (Fraction(0),)], ids=str)
def test_hom_space_refuses_weights_outside_one_base(weights):
    ops = [WeightedPerm(QQ, [0], [w]) for w in weights]
    with pytest.raises(InvalidParameters):
        hom_space(ops, ops, 1, 1)


# ---------------------------------------------------------------------------
# Diff tests of the integer monomial closure, trace form and centers
# against the dense Fraction code they replaced, kept here as a test-only
# oracle.

class _DenseBlockOp:
    """One dense Fraction Matrix per partition block."""

    def __init__(self, mats):
        self.mats = list(mats)

    def __mul__(self, other):
        return _DenseBlockOp([a * b for a, b in zip(self.mats, other.mats)])

    def sub(self, other):
        return _DenseBlockOp([a - b for a, b in zip(self.mats, other.mats)])

    def scale(self, c):
        return _DenseBlockOp([m.scale(c) for m in self.mats])

    def vec(self):
        return [v for m in self.mats for r in m.rows for v in r]

    def __eq__(self, other):
        return all(a == b for a, b in zip(self.mats, other.mats))


def _dense_collapsed_generators(N, n, x):
    rep = TauRep(N, x)
    blocks = [partition_block(N, n, lam) for lam, _ in charge_blocks(N, n)[1]]
    gens = [_DenseBlockOp([op.to_matrix() for op in ops])
            for ops in zip(*(b.ops(rep) for b in blocks))]
    ident = _DenseBlockOp([Matrix.identity(QQ, b.dim) for b in blocks])
    return blocks, gens, ident, rep


def _dense_closure(gens, ident):
    span = RowSpan(len(ident.vec()))
    basis = []
    frontier = [ident] + gens
    while frontier:
        fresh = []
        for op in frontier:
            if span.insert(op.vec()):
                basis.append(op)
                fresh.append(op)
        frontier = [g * b for b in fresh for g in gens]
    return basis


def _dense_radical_dim(basis):
    gram = [[_dense_trace_product(a, b) for b in basis] for a in basis]
    return len(basis) - rank(gram)


def _dense_center_dim(basis, constraints):
    cols = [[v for c in constraints for v in (b * c).sub(c * b).vec()] for b in basis]
    return len(basis) - rank(cols)


def _dense_semisimplicity_check(N, n, x):
    blocks, gens, ident, rep = _dense_collapsed_generators(N, n, x)
    basis = _dense_closure(gens, ident)
    return {"radical_dim": _dense_radical_dim(basis),
            "center_dim": _dense_center_dim(basis, gens), "algebra_dim": len(basis)}


def _dense_localization_report(N, n, x):
    blocks, gens, ident, rep = _dense_collapsed_generators(N, n, x)
    basis = _dense_closure(gens, ident)
    e = _DenseBlockOp([f_operator(N, b, rep) for b in blocks]).scale(
        Fraction(1, math.factorial(N)))
    if not e * e == e:
        raise NotIdempotent("f/N! fails to square to itself")
    radical = _dense_radical_dim(basis)
    count_a = _dense_center_dim(basis, gens)
    span_eae = RowSpan(len(ident.vec()))
    basis_eae = [ebe for ebe in (e * b * e for b in basis) if span_eae.insert(ebe.vec())]
    count_eae = _dense_center_dim(basis_eae, basis_eae)
    span_aea = RowSpan(len(ident.vec()))
    dim_aea = sum(span_aea.insert((ae * b).vec()) for ae in (a * e for a in basis)
                  for b in basis)
    cols = [[v for g in gens for v in span_aea.reduce((b * g).sub(g * b).vec())]
            for b in basis]
    count_quotient = len(basis) - rank(cols) - dim_aea
    return {"radical_dim": radical, "simple_count": count_a,
            "localized_count": count_eae, "quotient_count": count_quotient,
            "aea_dim": dim_aea, "algebra_dim": len(basis),
            "triangle_ok": radical == 0 and count_a == count_eae + count_quotient}


_ALGEBRA_XS = [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(-1), Fraction(1),
               Fraction(-1, 3), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 2)]


@pytest.mark.parametrize("x", _ALGEBRA_XS, ids=str)
@pytest.mark.parametrize("N,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_semisimplicity_check_matches_dense_oracle(N, n, x):
    assert semisimplicity_check(N, n, x) == _dense_semisimplicity_check(N, n, x)


# The dense AeA products cost about 6 s per (3, 4) point at generic x, so
# that size runs at one generic and one degenerate parameter.
@pytest.mark.parametrize("N,n,x", [(N, n, x) for N, n in ((2, 3), (2, 4), (3, 3))
                                   for x in _ALGEBRA_XS]
                         + [(3, 4, Fraction(2)), (3, 4, Fraction(-1))], ids=str)
def test_localization_report_matches_dense_oracle(N, n, x):
    assert localization_report(N, n, x) == _dense_localization_report(N, n, x)


def _product_ideal_span(basis, f):
    """RowSpan of every product a f b over a basis of A: the |A|^2 loop that
    the two-sided closure replaced, kept as its oracle."""
    span = RowSpan(len(f.vec()), ZZ)
    for a in basis:
        af = a * f
        for b in basis:
            span.insert((af * b).vec())
    return span


# Sizes beyond the dense localization oracle.
@pytest.mark.parametrize("N,n,x", [(2, 5, Fraction(2)), (3, 4, Fraction(2)),
                                   (3, 4, Fraction(-1))], ids=str)
def test_two_sided_closure_spans_the_product_ideal(N, n, x):
    blocks, gens, ident, rep = collapsed_generators(N, n, x)
    basis, _ = _closure(gens, [ident])
    f = _f_blockop(N, blocks, rep)
    aea, span = _closure(gens, [f], gens)
    oracle = _product_ideal_span(basis, f)
    assert len(aea) == span.dim == oracle.dim
    assert all(oracle.contains(op.vec()) for op in aea)
    assert all(span.contains(row) for row in oracle.int_rows)


def test_closure_basis_is_words_of_scaled_generators():
    # the closure keeps words as WeightedPerms with int weights; each is a
    # nonzero multiple of the dense word at the same place in the basis
    blocks, gens, ident, rep = collapsed_generators(2, 4, Fraction(7, 2))
    basis, _ = _closure(gens, [ident])
    dense = _dense_closure(*_dense_collapsed_generators(2, 4, Fraction(7, 2))[1:3])
    assert len(basis) == len(dense) == 35
    for mine, theirs in zip(basis, dense):
        assert all(isinstance(m, WeightedPerm) and all(type(w) is int for w in m.wts)
                   for m in mine.mats)
        v, w = mine.vec(), theirs.vec()
        j = next(i for i, a in enumerate(w) if a)
        assert [a * w[j] for a in v] == [b * v[j] for b in w]


def test_algebra_span_of_rational_generators_matches_dense_closure():
    # WeightedPerm and Matrix generators with weight 7/2 are scaled to ints;
    # both bases span the algebra of the dense Fraction words
    block = partition_block(2, 4, (2, 2))
    ops = block.ops(TauRep(2, Fraction(7, 2)))
    oracle = _dense_closure([_DenseBlockOp([op.to_matrix()]) for op in ops],
                            _DenseBlockOp([Matrix.identity(QQ, block.dim)]))
    words = RowSpan(block.dim ** 2)
    for op in oracle:
        words.insert(op.vec())
    for gens in (ops, [op.to_matrix() for op in ops]):
        span = algebra_span(gens)
        assert span.d == block.dim and len(span.basis) == len(oracle) == words.dim
        for m in span.basis:
            assert m.ring is QQ and all(type(v) is Fraction for v in m.entries())
            assert words.contains([v for r in m.rows for v in r])


# ---------------------------------------------------------------------------
# Monomial operators applied term by term, against the dense oracles in
# helpers.py.

ORACLE_XS = [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(-1), Fraction(1),
             Fraction(-2, 3)]


def _localized(result):
    loc, ok = result
    if loc is None:
        return None, ok
    return (loc.block.comp, loc.dim, loc.span.int_rows, loc.rep), ok


@pytest.mark.parametrize("x", ORACLE_XS, ids=str)
def test_localize_and_is_e_null_match_dense_oracle(x):
    compared = 0
    for N in (2, 3):
        rep = TauRep(N, x)
        for n in range(N, 7):
            for lam, _, block, mods in harmonic_blocks(N, n, rep):
                f_cols, f_mat = f_columns(N, block), f_operator(N, block)
                for mod in mods + [young_module(block, rep)]:
                    assert is_e_null(mod, f_cols) == dense_is_e_null(mod, f_mat)
                    if n > N:
                        assert _localized(localize(f_cols, mod)) == \
                            _localized(dense_localize(f_mat, mod)), (N, n, lam, mod.label)
                        compared += 1
    assert compared > 50


def test_f_columns_are_the_dense_symmetrizer():
    for N, n in ((2, 4), (3, 4), (3, 5)):
        for lam, _ in charge_blocks(N, n)[1]:
            block = partition_block(N, n, lam)
            f_mat = f_operator(N, block)
            cols = f_columns(N, block)
            assert [[(i, c) for i in range(block.dim) if (c := f_mat.rows[i][j])]
                    for j in range(block.dim)] == cols
            assert all(type(c) is int and len(col) <= math.factorial(N)
                       for col in cols for _, c in col)


@pytest.mark.parametrize("N,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_bmw_check_matches_dense_oracle(N, n):
    got = bmw_check(N, n).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(dense_bmw_check(N, n).to_json(),
                                                         sort_keys=True)
    assert got["ok"] == (N == 2)


def test_laurent_witness_reads_the_first_dense_difference():
    # the sparse witness of two entry maps is the dense witness of their
    # matrices, zeros on either side included
    rng = random.Random(16)
    q = LaurentPoly.gen()
    values = [LaurentPoly.const(1), q, -q.inverse(), q + LaurentPoly.const(2)]
    words = [(a, b) for a in (1, 2) for b in (1, 2)]
    d = len(words)
    for _ in range(60):
        lhs = {(rng.randrange(d), rng.randrange(d)): rng.choice(values) for _ in range(3)}
        rhs = dict(lhs)
        pos = (rng.randrange(d), rng.randrange(d))
        if pos in rhs and rng.random() < 0.5:
            del rhs[pos]
        else:
            rhs[pos] = rhs.get(pos, LaurentPoly()) + q
        got = _laurent_witness(lhs, rhs, d, words)
        diff = _first_difference(_dense(lhs, d), _dense(rhs, d))
        i, j = diff["position"]
        assert got == {"row_word": "%d%d" % words[i], "col_word": "%d%d" % words[j],
                       "left": diff["left"], "right": diff["right"]}


@pytest.mark.parametrize("x", [Fraction(2), Fraction(7, 2), Fraction(1, 3), Fraction(-2, 3),
                               Fraction(-1)], ids=str)
def test_branch_rule_matches_fraction_oracle(x):
    # the rule against multiplicities solved from sampled trace identities
    # with rational words and dense projectors, on harmonic and Young
    # modules; where the characters cannot separate the candidates (x = -1
    # from n = 3 on) the summand dimensions must still fill the module
    decided = undecided = 0
    for N, n in ((2, 5), (3, 4), (3, 5), (4, 5)):
        rep = TauRep(N, x)
        below = {lam: (block, mods) for lam, _, block, mods in harmonic_blocks(N, n - 1, rep)}
        for lam, _, block, mods in harmonic_blocks(N, n, rep):
            reach = sorted(young_branch_rule(N, lam), reverse=True)
            cases = [(mod, [c for mu in reach for c in below[mu][1]]) for mod in mods]
            cases.append((young_module(block, rep),
                          [young_module(below[mu][0], rep) for mu in reach]))
            for m, cands in cases:
                got = restrict_and_branch(m).summands
                want = fraction_branch(m, cands, 5)
                if isinstance(want, tuple):
                    assert got == want[0]
                    decided += 1
                else:
                    assert want.startswith("could not separate") and x == -1
                    assert sum(s["multiplicity"] * s["dim"] for s in got) == m.dim
                    undecided += 1
    assert (decided, undecided) == ((35, 9) if x == -1 else (44, 0))


def _break_op(monkeypatch, comp):
    """ChargeBlock._op with the first weight on strands 1, 2 changed on the
    block of the given content."""
    original = ChargeBlock._op

    def broken(self, j, same, swapped, ring):
        op = original(self, j, same, swapped, ring)
        if self.comp == comp and j == 1:
            return WeightedPerm(ring, op.tgt, (op.wts[0] + 1,) + op.wts[1:])
        return op

    monkeypatch.setattr(ChargeBlock, "_op", broken)


def test_fiber_check_refuses_a_broken_weight(monkeypatch):
    _break_op(monkeypatch, (2, 1, 0))
    # the broken block as the source and as a target of the fiber maps
    for lam in ((2, 1), (2, 1, 1), (2, 2), (3, 1)):
        with pytest.raises(LoopBraidError, match="does not intertwine generator 0"):
            verify_young_branching(3, lam)
    assert verify_young_branching(3, (1, 1, 1))
    assert verify_young_branching(3, (3,))


def test_branch_with_a_broken_weight_exits_1(monkeypatch, capsys):
    from loopbraid.cli import dispatch
    _break_op(monkeypatch, (2, 1, 1))
    assert dispatch(["branch", "--N", "3", "--nmax", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: the fiber map of (2, 1, 1) does not intertwine "
                                "generator 0"]


def test_branch_builds_each_block_op_list_once(monkeypatch, capsys):
    # branch --N 3 --nmax 6 builds each block's generator list once per use:
    # the sources at n = 3..6 (7 blocks at n = 6) with 2(n - 2) generators
    # and the candidate blocks at n = 2..5 with all 2(n - 1)
    from loopbraid.cli import dispatch
    calls = []
    original = ChargeBlock._op

    def counted(self, *args):
        calls.append(self.comp)
        return original(self, *args)

    monkeypatch.setattr(ChargeBlock, "_op", counted)
    assert dispatch(["branch", "--N", "3", "--nmax", "6"]) == 0
    capsys.readouterr()
    sources = sum(2 * (n - 2) * len(charge_blocks(3, n)[1]) for n in range(3, 7))
    candidates = sum(2 * (n - 1) * len(charge_blocks(3, n)[1]) for n in range(2, 6))
    assert (sources, candidates) == (108, 80)
    assert len(calls) == sources + candidates


def test_int_ops_scale_sigma_by_the_denominator_of_x():
    block = partition_block(3, 4, (2, 1, 1))
    for x in (Fraction(7, 2), Fraction(-2, 3), Fraction(1)):
        rep = TauRep(3, x)
        int_ops = block.int_ops(rep)
        for k, (op, int_op) in enumerate(zip(block.ops(rep), int_ops)):
            scale = x.denominator if k % 2 == 0 else 1  # sigma, then s
            assert int_op.ring is ZZ and int_op.tgt == op.tgt
            assert all(type(w) is int for w in int_op.wts)
            assert [Fraction(w, scale) for w in int_op.wts] == list(op.wts)
        assert len(int_ops) == 6 and len(block.int_ops(rep, 1)) == 2
    with pytest.raises(InvalidParameters):
        block.int_ops(TauRep(3, None, "q"))


# ---------------------------------------------------------------------------
# The generator-form check and the theorems it proves, against the closure
# certificate they replaced (helpers.closure_reports), the projected hom
# spaces (helpers.projected_end_dims), the hom-space walk the mixed-cell
# lemma makes unnecessary and the Young's-rule counts at x = -1.

_GRID_XS = [Fraction(2), Fraction(7, 2), Fraction(1), Fraction(-1, 2), Fraction(-1),
            Fraction(1, 3), Fraction(-2, 3), Fraction(-3, 2)]


def _assert_reports_match_the_oracles(N, n, x):
    semisimple, localized = closure_reports(N, n, x)
    assert semisimplicity_check(N, n, x) == semisimple
    assert harmonic_end_dims(N, n, x) == projected_end_dims(N, n, x)
    if localized is None:
        with pytest.raises(InvalidParameters):
            localization_report(N, n, x)
    else:
        assert localization_report(N, n, x) == localized


# (4, 5) costs about 10 s per point in the oracles, 35 s at x = -1, so
# the larger sizes run at x = 2 only.
@pytest.mark.parametrize("x", _GRID_XS, ids=str)
@pytest.mark.parametrize("N,n", [(N, n) for N in range(1, 5) for n in range(5)]
                         + [(1, 5), (2, 5), (3, 5)])
def test_reports_match_the_closure_certificate(N, n, x):
    _assert_reports_match_the_oracles(N, n, x)


@pytest.mark.parametrize("N,n", [(4, 5), (2, 6), (2, 7)])
def test_reports_match_the_closure_certificate_at_larger_sizes(N, n):
    _assert_reports_match_the_oracles(N, n, Fraction(2))


# The points of the grid that the dense oracles do not reach: (2, 2) and
# (2, 5) for both reports, and the localization report at (3, 4); the
# next test adds the semisimplicity check at (4, 4, 2).
@pytest.mark.parametrize("x", _ALGEBRA_XS, ids=str)
@pytest.mark.parametrize("N,n,reports", [(2, 2, "both"), (2, 5, "both"), (3, 4, "localize")])
def test_wedderburn_count_matches_the_trace_form_path(N, n, x, reports):
    semisimple, localized = closure_reports(N, n, x)
    if reports == "both":
        assert semisimplicity_check(N, n, x) == semisimple
    assert localization_report(N, n, x) == localized


def test_wedderburn_count_at_four_colors():
    got = semisimplicity_check(4, 4, Fraction(2))
    assert got == {"radical_dim": 0, "center_dim": 11, "algebra_dim": 131}
    assert got == closure_reports(4, 4, Fraction(2))[0]


def _hook_count(nu):
    """f^nu by the hook length formula, computed here from the diagram."""
    cols = [sum(1 for row in nu if row > c) for c in range(nu[0])] if nu else []
    hooks = math.prod(row - c + cols[c] - r - 1 for r, row in enumerate(nu) for c in range(row))
    return math.factorial(sum(nu)) // hooks


def _young_reports(N, n):
    """(semisimplicity_check, localization_report) at x = -1 by Young's
    rule: one simple S^nu of dimension f^nu for each partition nu of n
    with at most N rows, the symmetrizer surviving on those with N rows."""
    nus = partitions_max_rows(n, N)
    kept = [nu for nu in nus if len(nu) == N]
    algebra_dim = sum(_hook_count(nu) ** 2 for nu in nus)
    semisimple = {"radical_dim": 0, "center_dim": len(nus), "algebra_dim": algebra_dim}
    if n < N:
        return semisimple, None
    return semisimple, {"radical_dim": 0, "simple_count": len(nus),
                        "localized_count": len(kept), "quotient_count": len(nus) - len(kept),
                        "aea_dim": sum(_hook_count(nu) ** 2 for nu in kept),
                        "algebra_dim": algebra_dim, "triangle_ok": True}


# (N, n, algebra_dim, center_dim, localized_count, quotient_count, aea_dim)
# beyond the closure oracle's reach, then the edge cases n = 0, n = 1,
# N = 1 and n < N
@pytest.mark.parametrize("N,n,counts", [
    (3, 6, (513, 7, 3, 4, 381)), (2, 7, (429, 4, 3, 1, 428)), (4, 5, (119, 6, 1, 5, 16)),
    (4, 6, (694, 9, 2, 7, 181)), (5, 5, (120, 7, 1, 6, 1)), (3, 7, (2761, 8, 4, 4, 2332)),
    (2, 9, (4862, 5, 4, 1, 4861)),
    (1, 0, (1, 1, None, None, None)), (3, 0, (1, 1, None, None, None)),
    (3, 1, (1, 1, None, None, None)), (1, 1, (1, 1, 1, 0, 1)), (1, 6, (1, 1, 1, 0, 1)),
    (4, 3, (6, 3, None, None, None))],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_reports_at_minus_one_follow_youngs_rule(N, n, counts):
    x = Fraction(-1)
    semisimple, localized = _young_reports(N, n)
    algebra_dim, center_dim, kept, quotient, aea_dim = counts
    assert (semisimple["algebra_dim"], semisimple["center_dim"]) == (algebra_dim, center_dim)
    assert semisimplicity_check(N, n, x) == semisimple
    if localized is None:
        assert kept is None
        with pytest.raises(InvalidParameters):
            localization_report(N, n, x)
    else:
        assert (localized["localized_count"], localized["quotient_count"],
                localized["aea_dim"]) == (kept, quotient, aea_dim)
        assert localization_report(N, n, x) == localized


def test_x_minus_one_builds_no_element_of_a(monkeypatch):
    def refused(*args):
        raise AssertionError("a module was decomposed or a hom space walked")

    monkeypatch.setattr(analysis, "hom_space", refused)
    monkeypatch.setattr(analysis, "harmonic_decompose", refused)
    x = Fraction(-1)
    # dim A = 23, where the harmonic modules would give 107
    assert semisimplicity_check(3, 4, x) == {"radical_dim": 0, "center_dim": 4, "algebra_dim": 23}
    assert localization_report(3, 4, x) == _young_reports(3, 4)[1]
    assert semisimplicity_check(3, 6, x) == _young_reports(3, 6)[0]
    # the orbit count of harmonic_end_dims still walks the hom space there
    with pytest.raises(AssertionError, match="walked"):
        harmonic_end_dims(3, 4, x)


def test_the_count_path_builds_no_closure_and_projects_nothing(monkeypatch):
    def refused(*args):
        raise AssertionError("the mixed-cell path called a fallback")

    monkeypatch.setattr(analysis, "_project_hom", refused)
    monkeypatch.setattr(analysis, "hom_space", refused)
    assert not any(hasattr(analysis, name) for name in
                   ("_closure", "BlockOp", "_integral", "_center_dim", "_f_blockop"))
    assert semisimplicity_check(3, 5, Fraction(2)) == \
        {"radical_dim": 0, "center_dim": 7, "algebra_dim": 776}
    assert localization_report(3, 4, Fraction(2)) == \
        {"radical_dim": 0, "simple_count": 6, "localized_count": 1, "quotient_count": 5,
         "aea_dim": 36, "algebra_dim": 107, "triangle_ok": True}
    ends = harmonic_end_dims(4, 5, Fraction(2))
    assert len(ends) == 10 and all(e["end_dim"] == 1 for e in ends)


def test_the_count_agrees_with_the_closure_certificate_on_its_pieces():
    # the closed forms of the lemma are the sums over the harmonic modules
    # that the closure certificate accepts
    blocks, gens, ident, rep = collapsed_generators(3, 4, Fraction(2))
    basis, _ = _closure(gens, [ident])
    closed = closure_wedderburn_pieces(blocks, gens, len(basis),
                                       [harmonic_decompose(b, rep) for b in blocks])
    assert len(closed) == 6
    assert [b.lam for b in blocks] == [b.lam for b in _certified_image(3, 4, Fraction(2))[0]]
    assert analysis._simple_counts(blocks, rep) == \
        (len(closed), sum(m.dim ** 2 for _, m in closed)) == (6, len(basis))


def _color_group_order(block):
    return math.prod(math.factorial(len(colors)) for _, colors in multiplicity_classes(block.lam))


# The check holds at every x; the lemma against the hom-space walk: at every
# x but -1, End_A(B) of each block is spanned by its |G_lam| color
# relabelings and no two blocks have an intertwiner.
@pytest.mark.parametrize("N,n", [(N, n) for N in range(1, 5) for n in range(1, 6)]
                         + [(2, 6), (3, 6)], ids=str)
def test_the_mixed_cell_lemma_matches_the_walk(N, n):
    blocks = [partition_block(N, n, lam) for lam, _ in analysis._charge_index(N, n)]
    for x in _GRID_XS:
        rep = TauRep(N, x)
        ops = [b.ops(rep) for b in blocks]
        for k, (block, block_ops) in enumerate(zip(blocks, ops)):
            assert _relabelings_only(block, block_ops, rep)
            if x == -1:
                continue
            assert len(hom_space(block_ops, block_ops, block.dim, block.dim)) == \
                _color_group_order(block)
            for other, other_ops in zip(blocks[k + 1:], ops[k + 1:]):
                assert hom_space(block_ops, other_ops, block.dim, other.dim) == []
                assert hom_space(other_ops, block_ops, other.dim, block.dim) == []


# Each sabotage copies a generator list and breaks one hypothesis of the
# lemma: a sigma_j weight, a sigma_j target, or (through _color_swaps) a
# color swap that does not commute with the generators.

def _sigma_weight(ops):
    """ops with the weight of the first word that sigma_1 fixes raised by 1
    (the matrix stays symmetric); unchanged where sigma_1 fixes none."""
    sigma = ops[0]
    i = next((i for i, t in enumerate(sigma.tgt) if t == i), None)
    if i is None:
        return ops
    wts = list(sigma.wts)
    wts[i] += 1
    return [WeightedPerm(sigma.ring, sigma.tgt, wts)] + ops[1:]


def _sigma_target(ops):
    """ops with the targets of the words 0 and 1 exchanged in sigma_1;
    unchanged on a block of one word."""
    sigma = ops[0]
    if sigma.n < 2:
        return ops
    tgt = list(sigma.tgt)
    tgt[0], tgt[1] = tgt[1], tgt[0]
    return [WeightedPerm(sigma.ring, tgt, sigma.wts)] + ops[1:]


def _non_commuting_swap(original):
    def color_swaps(block):
        out = original(block)
        if block.dim > 1:  # the words 0 and 1 exchanged
            out.append([1, 0] + list(range(2, block.dim)))
        return out
    return color_swaps


def test_the_check_refuses_a_sabotaged_generator_list(monkeypatch):
    for x in (Fraction(2), Fraction(1), Fraction(-2, 3), Fraction(-1)):
        rep = TauRep(3, x)
        block = partition_block(3, 4, (2, 1, 1))
        ops = block.ops(rep)
        assert _relabelings_only(block, ops, rep)
        assert not _relabelings_only(block, _sigma_weight(ops), rep)
        assert not _relabelings_only(block, _sigma_target(ops), rep)
        assert not _relabelings_only(block, ops[:-2], rep)
        assert not _relabelings_only(block, ops, TauRep(3, 2 * x))
        with monkeypatch.context() as m:
            m.setattr(analysis, "_color_swaps", _non_commuting_swap(analysis._color_swaps))
            assert not _relabelings_only(block, ops, rep)
    block = partition_block(2, 3, (2, 1))
    assert not _relabelings_only(block, block.ops(TauRep(2, None, "q")), TauRep(2, None, "q"))


def _checked_with(sabotage):
    """A wrapper of _relabelings_only that checks the sabotaged copy of
    each generator list."""
    def wrap(original):
        return lambda block, ops, rep: original(block, sabotage(ops), rep)
    return wrap


def _extra_self_component(original):
    """hom_space with a copy of the first component added on every block
    of more than one word, where the harmonic projectors are not the
    identity: the count fails, and the projected dimension is unchanged."""
    def hom_space(ops_src, ops_tgt, d_src, d_tgt):
        out = original(ops_src, ops_tgt, d_src, d_tgt)
        return out + [dict(out[0])] if ops_src is ops_tgt and d_src > 1 else out
    return hom_space


def _cli_report(capsys, argv):
    from loopbraid.cli import dispatch
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Each sabotage makes a certificate fail where it holds.  A refused
# generator-form check makes semisimple exit 1 with one error line at every
# x (fallbacks None), and sends irreducible to the orbit count, which holds
# on the true generators unless the color swaps are broken too; irreducible
# must give the same stdout.  At x = -1 the count holds on both blocks of
# (3, 2), and a hom space with one component too many sends irreducible to
# the projection.
_AT_X2 = " --N 3 --n 4 --x 2"
_REFUSED = [("semisimple" + _AT_X2, None), ("semisimple --N 3 --n 4 --x -1", None),
            ("semisimple --N 2 --n 3 --x 1", None)]


@pytest.mark.parametrize("name,sabotage,cases", [
    ("hom_space", _extra_self_component,
     [("irreducible --N 3 --n 2 --x -1", {"hom_space", "_projected_hom_dim"})]),
    ("_relabelings_only", _checked_with(_sigma_weight),
     _REFUSED + [("irreducible" + _AT_X2, {"hom_space"})]),
    ("_relabelings_only", _checked_with(_sigma_target),
     _REFUSED + [("irreducible" + _AT_X2, {"hom_space"})]),
    ("_color_swaps", _non_commuting_swap,
     _REFUSED + [("irreducible" + _AT_X2, {"hom_space", "_projected_hom_dim"})])],
    ids=["extra_self_component", "sigma_weight", "sigma_target", "non_commuting_swap"])
def test_a_failed_count_takes_the_fallback_with_the_same_report(monkeypatch, capsys, name,
                                                                sabotage, cases):
    for argv, fallbacks in cases:
        want = _cli_report(capsys, argv.split())
        assert want[0] == 0
        with monkeypatch.context() as m:
            calls = set()
            for fallback in ("_projected_hom_dim", "hom_space"):
                def counted(*args, _name=fallback, _original=getattr(analysis, fallback)):
                    calls.add(_name)
                    return _original(*args)
                m.setattr(analysis, fallback, counted)
            assert _cli_report(capsys, argv.split())[:2] == want[:2]
            assert calls < fallbacks if fallbacks else not calls
            calls.clear()
            m.setattr(analysis, name, sabotage(getattr(analysis, name)))
            code, out, err = _cli_report(capsys, argv.split())
            if fallbacks is None:
                assert (code, out) == (1, "")
                assert err.startswith("error: ") and err.count("\n") == 1
                assert "Traceback" not in err
            else:
                assert (code, out) == want[:2]
                assert calls == fallbacks


# At x other than 0 and -1 the three reports walk no hom space at all.
@pytest.mark.parametrize("N,n", [(3, 4), (4, 3), (3, 5), (4, 5), (3, 8)],
                         ids=["3,4", "4,3", "3,5", "4,5", "3,8"])
def test_the_lemma_path_walks_no_hom_space(monkeypatch, N, n):
    def refused(*args):
        raise AssertionError("a hom space was walked")

    monkeypatch.setattr(analysis, "hom_space", refused)
    for x in (Fraction(2), Fraction(1), Fraction(-2, 3)):
        assert semisimplicity_check(N, n, x)["radical_dim"] == 0
        assert all(e["end_dim"] == 1 for e in harmonic_end_dims(N, n, x))
        if N <= n:
            assert localization_report(N, n, x)["triangle_ok"]


def test_x_one_is_certified_by_the_minus_x_cycle():
    # at x = 1 the sigma_j 2-cycle through a mixed cell has product 1, and
    # the cycle of sigma_j then s_j, of product -1, kills the cell's orbit
    x = Fraction(1)
    assert len(_certified_image(3, 4, x)[0]) == 4
    assert semisimplicity_check(3, 4, x) == closure_reports(3, 4, x)[0] == \
        {"radical_dim": 0, "center_dim": 6, "algebra_dim": 107}
    ends = harmonic_end_dims(4, 5, x)
    assert ends == projected_end_dims(4, 5, x)
    assert len(ends) == 10 and all(e["end_dim"] == 1 for e in ends)


# Beyond the closure oracle's reach the reports must equal the closed forms
# of the lemma: dim A = sum d_lam^2 / |G_lam| and one center dimension per
# harmonic module, prod p(k_i) on each block (p the partition count, k_i
# the sizes of the multiplicity classes).
@pytest.mark.parametrize("N,n,algebra_dim,center_dim", [(3, 9, 2886640, 17),
                                                        (3, 10, 23444678, 19),
                                                        (2, 14, 20058300, 9)],
                         ids=["3,9", "3,10", "2,14"])
def test_the_reports_equal_the_closed_forms_beyond_the_closure(N, n, algebra_dim, center_dim):
    algebra = center = 0
    for lam, _ in analysis._charge_index(N, n):
        classes = [len(colors) for _, colors in multiplicity_classes(lam)]
        algebra += multinomial(n, lam) ** 2 // math.prod(math.factorial(k) for k in classes)
        center += math.prod(len(partitions(k)) for k in classes)
    assert (algebra, center) == (algebra_dim, center_dim)
    assert semisimplicity_check(N, n, Fraction(2)) == \
        {"radical_dim": 0, "center_dim": center, "algebra_dim": algebra}


# ---------------------------------------------------------------------------
# The symmetry certificate of a zero radical, against the trace-form Gram
# it replaced (helpers.gram_radical_dim), at x = -1, where the harmonic
# modules are not the simples.

@pytest.mark.parametrize("N,n", [(2, 2), (2, 5), (3, 4), (4, 4), (3, 5), (2, 6)])
def test_symmetry_certificate_matches_the_gram_radical(N, n):
    x = Fraction(-1)
    _, gens, ident, _ = collapsed_generators(N, n, x)
    basis, _ = _closure(gens, [ident])
    assert gram_radical_dim(basis) == semisimplicity_check(N, n, x)["radical_dim"] == \
        localization_report(N, n, x)["radical_dim"] == 0


def test_a_non_symmetric_generator_is_refused(monkeypatch, capsys):
    from loopbraid.cli import dispatch
    # sigma_1 with the weight of one swapped word doubled on every block
    original = ChargeBlock.ops

    def ops(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        op = out[0]
        i = next((i for i, t in enumerate(op.tgt) if t != i), None)
        if i is not None:
            wts = list(op.wts)
            wts[i] = 2 * wts[i]
            out[0] = WeightedPerm(op.ring, op.tgt, wts)
        return out

    monkeypatch.setattr(ChargeBlock, "ops", ops)
    for call in (lambda: semisimplicity_check(2, 3, Fraction(2)),
                 lambda: localization_report(2, 3, Fraction(-1)),
                 lambda: harmonic_end_dims(2, 3, Fraction(2))):
        with pytest.raises(LoopBraidError, match="not a symmetric matrix"):
            call()
    assert dispatch(["semisimple", "--N", "2", "--n", "3", "--x", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# bmw_check on int codes and localize on int_ops, against the kernels they
# replaced.

@pytest.mark.parametrize("N,n", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 3)])
def test_bmw_int_codes_match_laurent_oracle(N, n):
    got = bmw_check(N, n).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(laurent_bmw_check(N, n).to_json(),
                                                         sort_keys=True)
    assert got["ok"] == (N == 2)


@pytest.mark.parametrize("x", [Fraction(2), Fraction(3), Fraction(7, 2), Fraction(-1),
                               Fraction(1)], ids=str)
def test_localize_int_checks_match_fraction_oracle(x):
    compared = 0
    for N in (2, 3):
        rep = TauRep(N, x)
        for n in range(N + 1, 7):
            for lam, _, block, mods in harmonic_blocks(N, n, rep):
                f_cols = f_columns(N, block)
                mods = mods + [young_module(block, rep)]
                for mod, got in zip(mods, localize_modules(f_cols, mods)):
                    assert _localized(got) == _localized(fraction_localize(f_cols, mod))
                    compared += 1
    assert compared == 66


def test_residual_check_with_a_wrong_target_action_matches_fraction_oracle(monkeypatch):
    # give every level-3 block its generators crossed (s_j where sigma_j
    # belongs): the identity fails on the whole block, so each module is
    # checked row by row, and the verdicts are the oracle's
    def crossed(original):
        def ops(self, *args, **kwargs):
            out = original(self, *args, **kwargs)
            return [out[k ^ 1] for k in range(len(out))] if self.n == 3 else out
        return ops

    monkeypatch.setattr(ChargeBlock, "int_ops", crossed(ChargeBlock.int_ops))
    monkeypatch.setattr(ChargeBlock, "ops", crossed(ChargeBlock.ops))
    verdicts = set()
    for x in (Fraction(2), Fraction(1)):  # at x = 1 both are the identity on (3, 0)
        rep = TauRep(2, x)
        for lam, _, block, mods in harmonic_blocks(2, 5, rep):
            f_cols = f_columns(2, block)
            mods = mods + [young_module(block, rep)]
            for mod, got in zip(mods, localize_modules(f_cols, mods)):
                assert _localized(got) == _localized(fraction_localize(f_cols, mod))
                if got[0] is not None:
                    verdicts.add(got[1])
    assert verdicts == {False, True}
