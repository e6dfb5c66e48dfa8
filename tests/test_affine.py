import math
from itertools import product

import pytest

from loopbraid.affine import (AffineParams, AglElement, agl_order,
                              determinant_profile, drinfeld_r_check,
                              drinfeld_r_permutation, drinfeld_report,
                              from_agl_form, generate_image, gl_order,
                              is_row_stochastic, proof_word_landmarks,
                              rho_generators, signed_power_set,
                              surjectivity_predicate, to_agl_form)
from loopbraid.braided import affine_bvs, swap_operator
from loopbraid.errors import CapExceeded, InvalidParameters, NotStochastic
from loopbraid.linalg import Matrix
from loopbraid.rings import IntegersMod


def res(mat):
    return [[v.residue for v in row] for row in mat.rows]


def test_rho_generator_blocks():
    images = rho_generators(AffineParams(5, 2, 2))
    assert res(images[("sigma", 1)]) == [[0, 1], [2, 4]]
    assert res(images[("s", 1)]) == [[0, 1], [1, 0]]
    # block placement at slot 2 for n=3, m=3
    images = rho_generators(AffineParams(3, 2, 3))
    assert res(images[("sigma", 2)]) == [[1, 0, 0], [0, 0, 1], [0, 2, 2]]


def test_rho_rows_sum_to_one():
    for (m, t) in ((3, 2), (5, 2), (5, 3), (7, 3), (9, 2)):
        for n in (2, 3, 4):
            for g in rho_generators(AffineParams(m, t, n)).values():
                assert is_row_stochastic(g)


def test_sigma_at_t_equal_one_is_s():
    # evaluating the braid block at t = 1 yields the symmetry block
    images = rho_generators(AffineParams(5, 2, 3))
    for i in (1, 2):
        sig = res(images[("sigma", i)])
        expected = [row[:] for row in sig]
        expected[i][i - 1] = 1   # t -> 1
        expected[i][i] = 0       # 1 - t -> 0
        assert expected == res(images[("s", i)])


def test_to_agl_form_examples():
    ring = IntegersMod(7)
    assert to_agl_form(Matrix.identity(ring, 3)) == AglElement((1, 0, 0, 1), (0, 0), 7)
    images = rho_generators(AffineParams(5, 2, 2))
    sig = to_agl_form(images[("sigma", 1)])
    assert sig.A == ((-2) % 5,) and sig.v == (2,)   # g(-t, t)
    sym = to_agl_form(images[("s", 1)])
    assert sym.A == (4,) and sym.v == (1,)          # g(-1, 1)


def test_agl_form_round_trip():
    for (m, t, n) in ((5, 2, 2), (5, 2, 3), (7, 3, 3)):
        for g in rho_generators(AffineParams(m, t, n)).values():
            assert from_agl_form(to_agl_form(g)) == g


def test_to_agl_form_rejects_non_stochastic():
    ring = IntegersMod(5)
    with pytest.raises(NotStochastic):
        to_agl_form(Matrix.from_int_rows(ring, [[2, 0], [0, 1]]))


def test_agl_multiplication_matches_matrices():
    # (A1,v1)(A2,v2) = (A1 A2, A1 v2 + v1) is exactly block-matrix
    # multiplication of the affine normal forms; the coordinate change
    # itself transposes, so it reverses products
    for (m, t, n) in ((3, 2, 2), (5, 2, 2), (3, 2, 3)):
        result = generate_image(AffineParams(m, t, n), keep_elements=True)
        elements = result.elements
        for a in elements[:15]:
            for b in elements[:15]:
                ga, gb = to_agl_form(a), to_agl_form(b)
                assert (ga * gb).to_matrix() == ga.to_matrix() * gb.to_matrix()
                assert to_agl_form(a * b) == gb * ga


def _affine_maps_oracle(m):
    """Brute-force count of x -> ax + b with a a unit mod m."""
    return sum(1 for a in range(m) if math.gcd(a, m) == 1 for _ in range(m))


def test_generate_image_orders_small():
    # oracle: enumerate all invertible affine maps over Z_m
    assert generate_image(AffineParams(3, 2, 2)).order == _affine_maps_oracle(3) == 6
    assert generate_image(AffineParams(5, 2, 2)).order == _affine_maps_oracle(5) == 20


def test_generate_image_proper_subgroup():
    # <3, -1> has index 2 in Z_13^x, so the image misses half of AGL_1
    result = generate_image(AffineParams(13, 3, 2), keep_elements=True)
    assert result.order == 78
    assert agl_order(13, 1) == 156
    dets = {d.residue for d in determinant_profile(AffineParams(13, 3, 2), result.elements)}
    allowed = {d.residue for d in signed_power_set(13, 3)}
    assert dets == allowed == {1, 3, 9, 12, 10, 4}


def _matrix_closure_oracle(p, cap):
    """Breadth-first closure by dense Matrix products over ZmInt, keyed on
    4-byte big-endian residues: the reference for the packed closure."""
    def key(g):
        out = bytearray(g.ring.m.to_bytes(4, "big"))
        for row in g.rows:
            for v in row:
                out += v.residue.to_bytes(4, "big")
        return bytes(out)

    gens = list(rho_generators(p).values())
    mults = gens + [g.inverse() for g in gens]
    ident = Matrix.identity(p.ring, p.n)
    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in mults:
                b = a * g
                k = key(b)
                if k not in seen:
                    seen[k] = b
                    nxt.append(b)
                    if len(seen) > cap:
                        return len(seen), False, [seen[k] for k in sorted(seen)]
        frontier = nxt
    return len(seen), True, [seen[k] for k in sorted(seen)]


@pytest.mark.parametrize("m,t,n", [(3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 3, 2), (9, 2, 2),
                                   (13, 3, 2), (4, 3, 2), (4, 3, 3), (8, 3, 2), (6, 5, 3)])
def test_generate_image_matches_matrix_oracle(m, t, n):
    p = AffineParams(m, t, n)
    for cap in (10, 100, 10 ** 7):
        order, complete, elements = _matrix_closure_oracle(p, cap)
        result = generate_image(p, cap=cap, keep_elements=True)
        assert (result.order, result.complete) == (order, complete), (cap,)
        assert [res(g) for g in result.elements] == [res(g) for g in elements], (cap,)
        assert set(result.determinants) == \
            {d.residue for d in determinant_profile(p, elements)}, (cap,)


def test_generate_image_cap():
    partial = generate_image(AffineParams(5, 2, 3), cap=10)
    assert not partial.complete and partial.order > 10
    with pytest.raises(CapExceeded):
        generate_image(AffineParams(5, 2, 3), cap=10, strict=True)


def test_all_generated_elements_stochastic_invertible():
    result = generate_image(AffineParams(5, 2, 3), keep_elements=True)
    ring = IntegersMod(5)
    for g in result.elements[:50]:
        assert is_row_stochastic(g)
        assert ring.is_unit(g.det())


def _gl_bruteforce(m, k):
    ring = IntegersMod(m)
    count = 0
    for entries in product(range(m), repeat=k * k):
        mat = Matrix.from_int_rows(ring, [list(entries[i * k:(i + 1) * k]) for i in range(k)])
        if ring.is_unit(mat.det()):
            count += 1
    return count


def test_agl_order_against_bruteforce():
    # exhaustive GL counts for m <= 5, k <= 2
    for m in (2, 3, 4, 5):
        for k in (1, 2):
            assert gl_order(m, k) == _gl_bruteforce(m, k)
            assert agl_order(m, k) == m ** k * _gl_bruteforce(m, k)
    assert agl_order(3, 1) == 6
    assert agl_order(3, 2) == 432
    assert agl_order(5, 1) == 20


def test_surjectivity_predicate_examples():
    assert surjectivity_predicate(5, 2) == {"units_ok": True, "generates": True}
    assert surjectivity_predicate(13, 3) == {"units_ok": True, "generates": False}
    assert surjectivity_predicate(9, 2) == {"units_ok": True, "generates": True}
    # 1 - t not a unit
    assert surjectivity_predicate(9, 4)["units_ok"] is False


def test_image_order_matches_prediction():
    for (m, t, n) in ((3, 2, 2), (3, 2, 3), (5, 2, 2), (9, 2, 2), (7, 3, 2)):
        pred = surjectivity_predicate(m, t)
        order = generate_image(AffineParams(m, t, n)).order
        if pred["units_ok"] and pred["generates"]:
            assert order == agl_order(m, n - 1)
        else:
            assert order < agl_order(m, n - 1)


def test_determinant_identity_only():
    p = AffineParams(5, 2, 2)
    dets = determinant_profile(p, [Matrix.identity(IntegersMod(5), 2)])
    assert {d.residue for d in dets} == {1}


def test_proof_word_landmarks():
    assert proof_word_landmarks(AffineParams(7, 3, 3))["ok"]
    assert proof_word_landmarks(AffineParams(5, 2, 3))["ok"]
    assert proof_word_landmarks(AffineParams(7, 3, 4))["ok"]


def test_drinfeld_pointwise():
    # (5,2): the double's braiding sends (1,0) to ((1-t)*1, 1) = (4,1)
    r_hat = drinfeld_r_permutation(5, 2)
    src = 1 * 5 + 0
    assert r_hat.tgt[src] == 4 * 5 + 1
    assert r_hat.tgt[0] == 0  # (0,0) is a fixed point


def test_drinfeld_report():
    rep = drinfeld_report(5, 2)
    assert rep["swap_conjugate_equal"]
    assert rep["transpose_at_inverse_t_equal"]
    # the literal same-parameter transpose is a different operator
    assert not rep["literal_transpose_equal"]
    assert drinfeld_r_check(5, 2)
    # check the 25x25 identities explicitly
    c = affine_bvs(5, 2).c
    s = swap_operator(c.ring, 5)
    assert drinfeld_r_permutation(5, 2) == (s * c) * s
    assert drinfeld_r_permutation(5, 2).to_matrix() == \
        affine_bvs(5, 3).c.to_matrix().transpose()  # 3 = 2^-1 mod 5


def test_params_validation():
    with pytest.raises(InvalidParameters):
        AffineParams(6, 2, 2)   # gcd != 1
    with pytest.raises(InvalidParameters):
        AffineParams(5, 1, 2)   # t = 1 excluded
    with pytest.raises(InvalidParameters):
        AffineParams(5, 6, 3)   # t = 1 mod m excluded
    with pytest.raises(InvalidParameters):
        AffineParams(5, 2, 1)   # fewer than two strands
    with pytest.raises(InvalidParameters):
        affine_bvs(4, 2)
