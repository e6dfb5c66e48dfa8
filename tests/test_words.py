import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluated_check_relations
from loopbraid.affine import AffineParams, rho_generators
from loopbraid.errors import InvalidParameters
from loopbraid.linalg import CodedPerm, Matrix, WeightedPerm
from loopbraid.rings import LQ, QQ, IntegersMod, LaurentPoly, _monomial_codes
from loopbraid.tensor import TauRep, full_images
from loopbraid.words import (Generator, Relation, RelationSet, check_relations,
                             evaluate_word, relations_for, s_, sigma)


def test_generator_normalization():
    assert Generator("s", 1, -1).exp == 1
    assert sigma(2, -1).exp == -1
    assert sigma(1).inv() == sigma(1, -1)
    for make in (lambda: sigma(1, 2), lambda: Generator("foo", 1)):
        with pytest.raises(InvalidParameters):
            make()


def test_relations_for_counts():
    # n=2: only s_1^2 = 1
    rs = relations_for(2, "LB")
    assert [r.label for r in rs.relations] == ["S3(i=1)"]
    # n=3: B1, S1, S3 x2, L1, L2 (index ranges enumerated by hand)
    rs = relations_for(3, "LB")
    assert [r.label for r in rs.relations] == [
        "B1(i=1)", "S1(i=1)", "S3(i=1)", "S3(i=2)", "L1(i=1)", "L2(i=1)"]
    # VB drops L2
    assert len(relations_for(3, "VB").relations) == 5
    assert "L2(i=1)" not in relations_for(3, "VB").labels()
    # SLB adds L3
    assert "L3(i=1)" in relations_for(3, "SLB").labels()
    # OLB replaces L2 by L3
    olb = relations_for(3, "OLB").labels()
    assert "L3(i=1)" in olb and "L2(i=1)" not in olb


def test_relations_for_rejects_bad_input():
    for n, variant in ((1, "LB"), (0, "SLB"), (3, "XB")):
        with pytest.raises(InvalidParameters):
            relations_for(n, variant)


def test_relations_for_deterministic():
    for variant in ("LB", "OLB", "VB", "SLB"):
        for n in range(2, 7):
            a = relations_for(n, variant)
            b = relations_for(n, variant)
            assert a.labels() == b.labels()
            assert a.relations == b.relations


def test_evaluate_word_examples():
    p = AffineParams(5, 2, 2)
    images = rho_generators(p)
    ident = evaluate_word(images, ())
    assert ident == Matrix.identity(IntegersMod(5), 2)
    # sigma_1 s_1 = M*P, by hand: [[0,1],[2,4]]*[[0,1],[1,0]] = [[1,0],[4,2]]
    val = evaluate_word(images, (sigma(1), s_(1)))
    assert [[v.residue for v in r] for r in val.rows] == [[1, 0], [4, 2]]
    # s_1 s_1 = identity (relation S3)
    assert evaluate_word(images, (s_(1), s_(1))) == ident
    # sigma^-1 via exact inversion
    assert evaluate_word(images, (sigma(1), sigma(1, -1))) == ident


def test_check_relations_tau_passes_lb():
    images = full_images(TauRep(2, Fraction(2)), 3)
    report = check_relations(images, relations_for(3, "LB"))
    assert report.ok


def test_check_relations_affine_slb_fails_exactly_l3():
    images = rho_generators(AffineParams(5, 2, 3))
    report = check_relations(images, relations_for(3, "SLB"))
    assert not report.ok
    assert report.failed_labels() == ["L3(i=1)"]
    witness = [r.witness for r in report.results if not r.ok][0]
    assert witness is not None and "position" in witness
    assert check_relations(images, relations_for(3, "LB")).ok


def test_all_identity_images_pass_lb():
    ident = Matrix.identity(QQ, 4)
    images = {("sigma", i): ident for i in range(1, 4)}
    images.update({("s", i): ident for i in range(1, 4)})
    assert check_relations(images, relations_for(4, "LB")).ok


def test_transposed_evaluation_swaps_l2_and_l3():
    # under the reversed-composition convention the affine family
    # satisfies L3 and fails L2
    images = rho_generators(AffineParams(5, 2, 3))
    report = check_relations(images, relations_for(3, "SLB"), transposed=True)
    assert report.failed_labels() == ["L2(i=1)"]


def test_relations_nest():
    # images passing LB at n also pass the LB relations at n-1, which only
    # mention generators of index < n-1
    images = rho_generators(AffineParams(7, 3, 4))
    assert check_relations(images, relations_for(4, "LB")).ok
    assert check_relations(images, relations_for(3, "LB")).ok


@pytest.mark.parametrize("N,n,x", [(2, 3, Fraction(2)), (2, 4, Fraction(3)),
                                   (3, 3, Fraction(7, 2)), (3, 4, Fraction(2))])
def test_tau_passes_slb(N, n, x):
    images = full_images(TauRep(N, x), n)
    assert check_relations(images, relations_for(n, "SLB")).ok


def test_mixed_dimension_images_rejected():
    images = {("sigma", 1): Matrix.identity(QQ, 2),
              ("s", 1): Matrix.identity(QQ, 3)}
    with pytest.raises(ValueError):
        check_relations(images, relations_for(2, "LB"))


def test_report_json_shape():
    images = rho_generators(AffineParams(3, 2, 2))
    report = check_relations(images, relations_for(2, "SLB")).to_json()
    assert set(report) == {"variant", "n", "results", "ok"}
    assert all(set(r) >= {"label", "ok"} for r in report["results"])


# ---------------------------------------------------------------------------
# The relation check on CodedPerm words against both sides multiplied out
# by evaluate_word on the images as given, kept in helpers as the oracle.

def _coded(images):
    """The images as CodedPerms; InvalidParameters unless they all code."""
    return dict(zip(images, CodedPerm.from_ops(list(images.values()))))


def _decoded(p: CodedPerm, ring):
    """The WeightedPerm of a CodedPerm, each code decoded to +-b^k."""
    return WeightedPerm(ring, p.tgt, [p.weight(c) for c in p.codes])


def _broken(images, rep, rng):
    """Three broken copies of the tau images: sigma_2 conjugated by a random
    permutation of the whole basis, one weight of s_1 multiplied by the
    braid weight, and one weight of sigma_1 negated."""
    d = images[("s", 1)].n
    perm = list(range(d))
    rng.shuffle(perm)
    p = WeightedPerm(rep.ring, perm, [rep.ring.one] * d)
    conjugated = dict(images)
    conjugated[("sigma", 2)] = p.inverse() * images[("sigma", 2)] * p
    out = [conjugated]
    for key, factor in ((("s", 1), rep.weights()[0]), (("sigma", 1), -rep.ring.one)):
        op = images[key]
        wts = list(op.wts)
        k = rng.randrange(d)
        wts[k] = wts[k] * factor
        out.append(dict(images))
        out[-1][key] = WeightedPerm(rep.ring, op.tgt, wts)
    return out


@pytest.mark.parametrize("rep", [TauRep(2, Fraction(2)), TauRep(3, Fraction(-1)),
                                 TauRep(2, Fraction(7, 2)), TauRep(3, Fraction(1, 3)),
                                 TauRep(2, Fraction(-2, 3)), TauRep(2, None, "q"),
                                 TauRep(3, None, "q")], ids=lambda r: "%s-%s" % (r.form, r.x))
def test_coded_relations_match_evaluated_oracle(rep):
    rng = random.Random(23)
    failed = 0
    for n in (3, 4):
        intact = full_images(rep, n)
        for images in [intact] + _broken(intact, rep, rng):
            for variant in ("LB", "OLB", "VB", "SLB"):
                rels = relations_for(n, variant)
                assert len(_coded(images)) == len(images)
                for transposed in (False, True):
                    got = check_relations(images, rels, transposed).to_json()
                    want = evaluated_check_relations(images, rels, transposed).to_json()
                    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
                    failed += not got["ok"]
                    assert got["ok"] or images is not intact
    assert failed > 0


@pytest.mark.parametrize("rep", [TauRep(3, Fraction(7, 2)), TauRep(2, Fraction(-1)),
                                 TauRep(2, None, "q")], ids=lambda r: "%s-%s" % (r.form, r.x))
def test_coded_words_match_evaluate_word(rep):
    # random words, inverse letters included, evaluated on CodedPerms
    # against the product of the images, each code decoded to the weight
    # +-b^k
    rng = random.Random(29)
    images = _broken(full_images(rep, 4), rep, rng)[0]
    letters = [g for kind, i in images for g in ((sigma(i), sigma(i, -1)) if kind == "sigma"
                                                 else (s_(i),))]
    coded = _coded(images)
    for _ in range(40):
        word = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 6)))
        for transposed in (False, True):
            want = evaluate_word(images, word, transposed)
            got = evaluate_word(coded, word, transposed)
            assert type(got) is CodedPerm
            assert got.tgt == want.tgt
            assert list(_decoded(got, rep.ring).wts) == list(want.wts)
            assert got.to_matrix() == want.to_matrix()


def test_coded_relations_with_inverse_letters():
    rep = TauRep(2, Fraction(7, 2))
    images = full_images(rep, 3)
    rels = RelationSet("custom", 3, [
        Relation("inv", (sigma(1), sigma(1, -1)), ()),
        Relation("conj", (sigma(1, -1), sigma(2), sigma(1)), (sigma(2), sigma(1), sigma(2, -1))),
        Relation("bad", (sigma(1, -1),), (sigma(1),))])
    got = check_relations(images, rels)
    assert got.to_json() == evaluated_check_relations(images, rels).to_json()
    assert got.failed_labels() == ["bad"]


def test_uncoded_images_take_the_evaluated_path():
    # weights {2, 3} are not the powers of one base; a Laurent weight 2q is
    # not +-q^k; affine images are matrices
    d = 4
    swap = [1, 0, 3, 2]
    cases = [{("sigma", 1): WeightedPerm(QQ, swap, [Fraction(2), Fraction(3)] * 2),
              ("s", 1): WeightedPerm(QQ, swap, [Fraction(1)] * d)},
             {("sigma", 1): WeightedPerm(LQ, swap, [LaurentPoly.monomial(1, 2)] * d),
              ("s", 1): WeightedPerm(LQ, swap, [LQ.one] * d)},
             rho_generators(AffineParams(5, 2, 2))]
    for images in cases:
        rels = relations_for(2, "SLB")
        rels = RelationSet("custom", 2, rels.relations + [
            Relation("sq", (sigma(1), sigma(1)), ()),
            Relation("comm", (sigma(1), s_(1)), (s_(1), sigma(1)))])
        with pytest.raises(InvalidParameters):
            _coded(images)
        assert check_relations(images, rels).to_json() == \
            evaluated_check_relations(images, rels).to_json()


def test_monomial_codes():
    q = LaurentPoly.gen()
    code, base = _monomial_codes([q, q.inverse(), -q ** 3, LQ.one, -LQ.one, Fraction(1)])
    assert base == q
    assert code == {q: 2, q.inverse(): -2, -q ** 3: 7, LQ.one: 0, -LQ.one: 1}
    code, base = _monomial_codes([Fraction(-7, 2), Fraction(4, 49), 1, -1])
    assert base == Fraction(7, 2)
    assert code == {Fraction(-7, 2): 3, Fraction(4, 49): -4, 1: 0, -1: 1}
    # x and 1/x give the same base, whichever comes first
    assert _monomial_codes([Fraction(2, 7), Fraction(-7, 2)]) == \
        _monomial_codes([Fraction(-7, 2), Fraction(2, 7)]) == \
        ({Fraction(2, 7): -2, Fraction(-7, 2): 3}, Fraction(7, 2))
    assert _monomial_codes([1, -1]) == ({1: 0, -1: 1}, 1)
    for bad in ([Fraction(2), Fraction(3)], [0], [q + 1], [LaurentPoly.monomial(1, 2)],
                [q, Fraction(2)]):
        with pytest.raises(InvalidParameters):
            _monomial_codes(bad)


@st.composite
def _tau_words(draw):
    """(ring, images, word): the tau images at N = 2 or 3 on 3 strands, at
    x in {2, 7/2, -2/3, -1, 1/3} or in the q form, and a word of up to 8
    letters, inverse letters included."""
    x = draw(st.sampled_from([Fraction(2), Fraction(7, 2), Fraction(-2, 3), Fraction(-1),
                              Fraction(1, 3), None]))
    rep = TauRep(draw(st.sampled_from([2, 3])), x, "x" if x is not None else "q")
    letters = [sigma(1), sigma(1, -1), sigma(2), sigma(2, -1), s_(1), s_(2)]
    word = tuple(draw(st.lists(st.sampled_from(letters), max_size=8)))
    return rep.ring, full_images(rep, 3), word


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_tau_words())
def test_coded_perm_products_and_inverses_decode_to_weighted_perms(case):
    ring, images, word = case
    coded = _coded(images)
    want = evaluate_word(images, word)
    got = evaluate_word(coded, word)
    for g, w in ((got, want), (got.inverse(), want.inverse())):
        decoded = _decoded(g, ring)
        assert decoded.tgt == w.tgt and decoded.wts == w.wts
        assert all(type(a) is type(b) for a, b in zip(decoded.wts, w.wts))
    assert got * got.inverse() == CodedPerm.identity(len(got.tgt), got.base)


@pytest.mark.parametrize("weights", [[Fraction(2), Fraction(3)],
                                     [LaurentPoly.monomial(1, 2)],
                                     [Fraction(0)], [LQ.zero]], ids=str)
def test_from_ops_refuses_weights_outside_one_base(weights):
    ring = LQ if isinstance(weights[0], LaurentPoly) else QQ
    ops = [WeightedPerm(ring, [0], [w]) for w in weights]
    with pytest.raises(InvalidParameters):
        CodedPerm.from_ops(ops)
