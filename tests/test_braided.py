import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import loopbraid
from loopbraid.braided import (BVS, GroupTypeData, affine_bvs, affine_loop,
                               bvs_from_group_type, bvs_from_json, c2_hecke,
                               diagonal_bvs, extend_to_loop,
                               is_diagonalizable_group_type, local_rep,
                               signed_swap_operator, swap_bvs,
                               swap_operator, tau_loop)
from loopbraid.errors import GroupTypeViolation, InvalidParameters, NotGroupType
from loopbraid.linalg import Matrix, WeightedPerm
from loopbraid.rings import QQ, IntegersMod, LaurentPoly
from loopbraid.words import check_relations, relations_for


def test_ybe_swap():
    assert swap_bvs(3).yang_baxter()


def test_ybe_affine():
    assert affine_bvs(5, 2).yang_baxter()


def test_ybe_c2_both_normalizations():
    assert c2_hecke(2).yang_baxter()
    assert c2_hecke(2, alt=True).yang_baxter()
    # formal Laurent variable as well
    assert c2_hecke().yang_baxter()


def test_ybe_invariant_under_inversion():
    for bvs in (swap_bvs(2), affine_bvs(5, 2), diagonal_bvs(2, Fraction(2)),
                c2_hecke(2), c2_hecke()):
        c_inv = bvs.c_inverse()
        assert BVS(bvs.d, c_inv).yang_baxter() == bvs.yang_baxter() is True


def test_group_type_assembly_swap():
    assert isinstance(swap_bvs(3).c, WeightedPerm)
    assert swap_bvs(3).c == swap_operator(QQ, 3)


def test_group_type_violation_detected():
    # g_1 acting as a transposition with g_2 = diag(1, 2) breaks the
    # compatibility equation
    g1 = Matrix.from_int_rows(QQ, [[0, 1], [1, 0]])
    g2 = Matrix.from_int_rows(QQ, [[1, 0], [0, 2]])
    with pytest.raises(GroupTypeViolation):
        bvs_from_group_type(GroupTypeData("left", [g1, g2]))


def test_diagonal_bvs_pattern():
    # c(x_i (x) x_j) = x x_j (x) x_i when i = j, else the plain swap
    x = Fraction(2)
    b = diagonal_bvs(2, x)
    c = b.c.to_matrix()
    expected = Matrix(QQ, [[x, 0, 0, 0], [0, 0, 1, 0],
                           [0, 1, 0, 0], [0, 0, 0, x]])
    assert c == expected
    with pytest.raises(InvalidParameters):  # singular at x = 0
        diagonal_bvs(2, 0)


def test_affine_group_type_passes_and_ybe():
    b = affine_bvs(5, 2)
    assert b.group_type.side == "right"
    assert b.yang_baxter()


def test_diagonalizable_examples():
    assert is_diagonalizable_group_type(diagonal_bvs(3, Fraction(2)).group_type)
    # (5,2): (t-1)(1-t) = -1 != 0 mod 5
    assert not is_diagonalizable_group_type(affine_bvs(5, 2).group_type)
    # (4,3): (t-1)(1-t) = -4 = 0 mod 4, so the operators commute
    assert is_diagonalizable_group_type(affine_bvs(4, 3).group_type)


def test_left_right_inversion_rule():
    # the inverse of a left group-type braiding is of right group type with
    # the inverted operators
    g = [Matrix.from_int_rows(QQ, [[1, 1], [0, 1]]),
         Matrix.from_int_rows(QQ, [[1, 1], [0, 1]])]
    left = bvs_from_group_type(GroupTypeData("left", g))
    right = bvs_from_group_type(GroupTypeData("right", [m.inverse() for m in g]))
    assert left.c_inverse() == right.c


def test_extend_to_loop_swap():
    lb = extend_to_loop(swap_bvs(2))
    assert lb.S == lb.base.c  # the swap braiding extends by itself


def test_extend_to_loop_affine_passes_lb():
    lb = affine_loop(5, 2)
    assert lb.variant == "LB"
    report = check_relations(local_rep(lb, 3), relations_for(3, "LB"))
    assert report.ok
    # and it cannot satisfy the extra symmetric relation
    report = check_relations(local_rep(lb, 3), relations_for(3, "SLB"))
    assert report.failed_labels() == ["L3(i=1)"]


def test_tau_loop_signed_swap_passes_slb():
    # x = None in form x is the default x = 2
    assert tau_loop(2).base.c == tau_loop(2, Fraction(2)).base.c
    for lb in (tau_loop(2, Fraction(2)), tau_loop(2)):
        assert lb.variant == "SLB"
        s2 = lb.S * lb.S
        assert s2.is_identity()
        report = check_relations(local_rep(lb, 3), relations_for(3, "SLB"))
        assert report.ok


def test_extend_requires_group_type():
    with pytest.raises(NotGroupType):
        extend_to_loop(c2_hecke(2))


def test_local_rep_placement():
    lb = affine_loop(5, 2)
    images = local_rep(lb, 2)
    assert images[("sigma", 1)] == lb.base.c
    assert images[("s", 1)] == lb.S
    images3 = local_rep(lb, 3)
    ident5 = WeightedPerm.identity(QQ, 5)
    assert images3[("sigma", 2)] == ident5.kron(lb.base.c)
    assert images3[("sigma", 1)] == lb.base.c.kron(ident5)


def test_tau_q_form_matrix():
    lb = tau_loop(2, None, form="q")
    c = lb.base.c.to_matrix()
    q = LaurentPoly.gen()
    qi = q.inverse()
    z = LaurentPoly()
    expected = Matrix(lb.base.ring, [[q, z, z, z], [z, z, qi, z],
                                     [z, qi, z, z], [z, z, z, q]])
    assert c == expected


def test_signed_swap_squares_to_identity():
    s = signed_swap_operator(QQ, 3)
    assert (s * s).is_identity()


def test_group_type_stock_passes_braid_relations():
    for lb in (affine_loop(3, 2), tau_loop(2, Fraction(2)), extend_to_loop(swap_bvs(2))):
        for n in (3, 4):
            images = local_rep(lb, n)
            report = check_relations(images, relations_for(n, "LB"))
            braid_only = [r for r in report.results if r.label.startswith("B")]
            assert all(r.ok for r in braid_only)


def test_dense_assembly_refused_above_limit():
    lb = tau_loop(2, Fraction(2))
    # force the dense path by converting c to a matrix
    dense = BVS(lb.base.d, lb.base.c.to_matrix(), group_type=lb.base.group_type)
    from loopbraid.braided import LoopBVS
    big = LoopBVS(dense, lb.S.to_matrix(), "SLB")
    with pytest.raises(InvalidParameters):
        local_rep(big, 15)  # 2^15 > 10^4


def test_bvs_json_roundtrip():
    b = affine_bvs(3, 2)
    data = b.to_json()
    assert data["d"] == 3 and data["ring"] == "rational"
    back = bvs_from_json(data)
    assert back.c == b.c
    assert back.group_type.side == "right"
    assert back.yang_baxter()


def _json_roundtrip(b):
    return bvs_from_json(json.loads(json.dumps(b.to_json())))


def test_bvs_json_roundtrip_over_every_ring():
    hecke = c2_hecke()  # Laurent entries, no group type
    back = _json_roundtrip(hecke)
    assert back.to_json()["ring"] == "laurent" and back.group_type is None
    assert back.c == hecke.c

    qform = diagonal_bvs(2, None, "q")
    back = _json_roundtrip(qform)
    assert back.c == qform.c
    assert back.group_type.side == "right" and back.group_type.g == qform.group_type.g

    z5 = IntegersMod(5)
    data = {"d": 2, "ring": "zm:5", "c": swap_operator(z5, 2).to_matrix().to_json()}
    back = _json_roundtrip(bvs_from_json(data))
    assert back.to_json() == data
    assert back.ring == z5 and back.c == swap_operator(z5, 2)


@pytest.mark.parametrize("ring", ["foo", "zm", "zm:", "zm:x", "zm:5:1", "zm:1", "zm:-5",
                                  "integer", 5, None])
def test_bvs_json_rejects_unknown_ring(ring):
    with pytest.raises(InvalidParameters):
        bvs_from_json(dict(swap_bvs(2).to_json(), ring=ring))


def _bad_group_type_json():
    """Group types on an affine BVS (d = 3): sided "up", two 3 x 3
    matrices, three 3 x 2 matrices."""
    data = affine_bvs(3, 2).to_json()
    gt = data["group_type"]
    up = dict(data, group_type=dict(gt, side="up"))
    short = dict(data, group_type=dict(gt, g=gt["g"][:2]))
    narrow = dict(data, group_type=dict(gt, g=[[row[:2] for row in g] for g in gt["g"]]))
    return up, short, narrow


def test_bvs_json_rejects_bad_group_type():
    for data in _bad_group_type_json():
        with pytest.raises(InvalidParameters):
            bvs_from_json(data)


def _bad_c_json():
    """The affine BVS (d = 3, so c is 9 x 9) with a d that does not match c,
    a non-positive or non-integer d, a 3-row c and a ragged c."""
    data = affine_bvs(3, 2).to_json()
    c = data["c"]
    ragged = [row[:-1] if i == 4 else row for i, row in enumerate(c)]
    return (dict(data, d=4), dict(data, d=0), dict(data, d=-3), dict(data, d="3"),
            dict(data, d=1.5), dict(data, c=c[:3]), dict(data, c=ragged))


def test_bvs_json_rejects_c_that_does_not_match_d():
    for data in _bad_c_json():
        with pytest.raises(InvalidParameters):
            bvs_from_json(data)


def _rejected_without_asserts(inputs):
    """True when bvs_from_json raises InvalidParameters on every input under
    python -O, which strips assert statements."""
    env = dict(os.environ, PYTHONPATH=str(Path(loopbraid.__file__).resolve().parents[1]))
    code = ("import json, sys\n"
            "from loopbraid.braided import bvs_from_json\n"
            "from loopbraid.errors import InvalidParameters\n"
            "for data in json.loads(sys.argv[1]):\n"
            "    try:\n        bvs_from_json(data)\n"
            "    except InvalidParameters:\n        continue\n"
            "    raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, json.dumps(inputs)],
                          env=env, timeout=60)
    return proc.returncode == 0


def test_bvs_json_rejects_bad_group_type_without_asserts():
    assert _rejected_without_asserts(_bad_group_type_json())


def test_bvs_json_rejects_c_that_does_not_match_d_without_asserts():
    assert _rejected_without_asserts(_bad_c_json())
