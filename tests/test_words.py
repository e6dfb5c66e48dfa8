from fractions import Fraction

import pytest

from loopbraid.affine import AffineParams, rho_generators
from loopbraid.errors import InvalidParameters
from loopbraid.linalg import Matrix
from loopbraid.rings import QQ, IntegersMod
from loopbraid.tensor import TauRep, full_images
from loopbraid.words import (Generator, check_relations, evaluate_word,
                             relations_for, s_, sigma)


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
