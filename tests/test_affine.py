import math
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopbraid
from helpers import _row_times, determinant_profile, from_agl_form, proof_word_landmarks
from loopbraid import affine
from loopbraid.affine import (AffineParams, AglElement, agl_order, drinfeld_r_permutation,
                              drinfeld_report, generate_image, gl_order,
                              is_row_stochastic, rho_generators, signed_power_set,
                              surjectivity_predicate, to_agl_form)
from loopbraid.braided import affine_bvs, swap_operator
from loopbraid.errors import InvalidParameters, NotStochastic
from loopbraid.linalg import Matrix
from loopbraid.modular import IntegersMod, subgroup_generated


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


def _word_image(images, letters, p):
    g = Matrix.identity(p.ring, p.n)
    for letter in letters:
        g = g * images[letter]
    return g


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.data())
def test_agl_form_round_trip_and_reversed_products_on_random_words(data):
    p = AffineParams(*data.draw(_valid_params(130)))
    images = rho_generators(p)
    words = st.lists(st.sampled_from(sorted(images)), max_size=6)
    a = _word_image(images, data.draw(words), p)
    b = _word_image(images, data.draw(words), p)
    for g in (a, b, a * b):
        assert from_agl_form(to_agl_form(g)) == g
    assert to_agl_form(a * b) == to_agl_form(b) * to_agl_form(a)


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
    # above the cap the order and determinants stay exact and no element is kept
    p = AffineParams(m, t, n)
    order, complete, elements = _matrix_closure_oracle(p, 10 ** 7)
    assert complete
    for cap in (10, 100, 10 ** 7):
        result = generate_image(p, cap=cap, keep_elements=True)
        assert (result.order, result.complete) == (order, order <= cap), (cap,)
        if order <= cap:
            assert [res(g) for g in result.elements] == [res(g) for g in elements], (cap,)
        else:
            assert result.elements is None, (cap,)
        assert set(result.determinants) == \
            {d.residue for d in determinant_profile(p, elements)}, (cap,)


@pytest.mark.parametrize("m", range(2, 14))
def test_int_generators_match_the_matrix_route(monkeypatch, m):
    # generate_image reads its permutations and determinants off the int
    # blocks; the Matrix images multiply the rows and give det directly.
    # Above 400 points the chain takes seconds, so there the check stops
    # at the permutations and determinants.
    chains = []
    chain_order = affine._chain_order

    def capture(perms, base):
        chains.append(perms)
        return chain_order(perms, base) if len(perms[0]) <= 400 else (0, [])

    monkeypatch.setattr(affine, "_chain_order", capture)
    for t in range(2, m):
        if math.gcd(m, t) != 1:
            continue
        for n in (2, 3, 4):
            p = AffineParams(m, t, n)
            result = generate_image(p, cap=2000, keep_elements=True)
            gens = list(rho_generators(p).values())
            rows = [(*head, (1 - sum(head)) % m) for head in product(range(m), repeat=n - 1)]
            index = {row: i for i, row in enumerate(rows)}
            perms = [tuple(index[_row_times(row, [[v.residue for v in col] for col in zip(*g.rows)],
                                            m)] for row in rows) for g in gens]
            assert chains.pop() == perms, (m, t, n)
            assert result.determinants == subgroup_generated(m, [g.det().residue for g in gens])
            if len(rows) > 400:
                continue
            if result.order <= 2000:
                order, _, elements = _matrix_closure_oracle(p, 2000)
                assert result.residues == [[v for row in res(g) for v in row] for g in elements]
            else:
                base = [index[tuple(int(c == r) for c in range(n))] for r in range(n)]
                order = chain_order(perms, base)[0]
                assert result.residues is None
            assert result.order == order, (m, t, n)


def _column_update(g):
    """Right multiplication by g on a row-major tuple of residues, as
    (destination, ((source, coefficient), ...)) entry updates.

    Only the columns where g differs from the identity are rewritten; a
    generator image is the identity outside two adjacent columns, so a
    product costs O(n) multiply-adds.
    """
    n = g.nrows
    cols = [[v.residue for v in col] for col in zip(*g.rows)]
    return tuple((r * n + c, tuple((r * n + k, v) for k, v in enumerate(col) if v))
                 for r in range(n)
                 for c, col in enumerate(cols)
                 if any(v != int(k == c) for k, v in enumerate(col)))


def _column_update_closure_oracle(p, cap=10 ** 7):
    """Breadth-first closure on row-major residue tuples, every generator and
    every inverse applied as a two-column update: the reference for the
    chain's element list.  Returns the order, completeness, the sorted elements
    and the determinant set."""
    m, n = p.m, p.n
    gens = list(rho_generators(p).values())
    mults = [(_column_update(g), g.det().residue)
             for g in gens + [g.inverse() for g in gens]]
    ident = tuple(int(r == c) for r in range(n) for c in range(n))
    seen = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            det_a = seen[a]
            for updates, det_g in mults:
                b = list(a)
                for dst, terms in updates:
                    acc = 0
                    for src, v in terms:
                        acc += a[src] * v
                    b[dst] = acc % m
                b = tuple(b)
                if b not in seen:
                    seen[b] = det_a * det_g % m
                    nxt.append(b)
                    if len(seen) > cap:
                        return len(seen), False, sorted(seen), set(seen.values())
        frontier = nxt
    return len(seen), True, sorted(seen), set(seen.values())


@pytest.mark.parametrize("m,t,n", [(3, 2, 2), (3, 2, 3), (5, 2, 2), (7, 3, 2), (9, 2, 2),
                                   (13, 3, 2), (4, 3, 2), (4, 3, 3), (8, 3, 2), (6, 5, 3),
                                   (5, 2, 3), (7, 3, 3)])
def test_generate_image_matches_column_update_oracle(m, t, n):
    # above the cap the order and determinants stay exact and no element is kept
    p = AffineParams(m, t, n)
    order, complete, elements, dets = _column_update_closure_oracle(p)
    assert complete
    for cap in (1, 10, 100, 1000, None):
        kwargs = {} if cap is None else {"cap": cap}
        result = generate_image(p, keep_elements=True, **kwargs)
        kept = cap is None or order <= cap
        assert (result.order, result.complete) == (order, kept), (cap,)
        if kept:
            assert [tuple(v.residue for row in g.rows for v in row)
                    for g in result.elements] == elements, (cap,)
        else:
            assert result.elements is None, (cap,)
        assert result.determinants == dets, (cap,)


@pytest.mark.parametrize("cap", [0, -5])
def test_generate_image_rejects_cap_below_one(cap):
    with pytest.raises(InvalidParameters):
        generate_image(AffineParams(5, 2, 3), cap=cap)


def test_generate_image_cap():
    partial = generate_image(AffineParams(5, 2, 3), cap=10)
    assert not partial.complete and partial.order == 12000


# The 54 valid (m, t, n) with m <= 11 and |AGL_{n-1}(Z_m)| <= 4 * 10^5.
_CHAIN_GRID = [(m, t, n) for m in range(3, 12) for t in range(2, m) if math.gcd(m, t) == 1
               for n in range(2, 6) if agl_order(m, n - 1) <= 4 * 10 ** 5]


@pytest.mark.parametrize("m,t,n", _CHAIN_GRID)
def test_chain_order_matches_closure(m, t, n):
    # the stabilizer chain's elements against the breadth-first closure it replaced
    p = AffineParams(m, t, n)
    order, complete, elements, dets = _column_update_closure_oracle(p)
    assert complete
    got = generate_image(p, keep_elements=True)
    assert (got.order, got.complete, got.determinants) == (order, True, dets)
    assert [tuple(r) for r in got.residues] == elements
    below = generate_image(p, cap=order - 1, keep_elements=True)
    assert (below.order, below.complete, below.residues, below.determinants) == \
        (order, False, None, dets)


def test_chain_cap_boundaries():
    p = AffineParams(5, 2, 3)
    at = generate_image(p, cap=12000)
    assert (at.order, at.complete, at.residues) == (12000, True, None)
    # the cut-off report is exact: the order and the determinant subgroup
    for keep_elements in (False, True):
        below = generate_image(p, cap=11999, keep_elements=keep_elements)
        assert (below.order, below.complete, below.residues) == (12000, False, None)
        assert below.determinants == at.determinants


def _perm_closure_order(perms):
    seen = {tuple(range(len(perms[0])))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in perms:
                b = tuple(g[x] for x in a)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return len(seen)


def test_chain_refuses_a_base_fixed_by_a_non_identity_element(monkeypatch):
    # S_4: the base (0, 1, 2) is fixed by the identity only, (0, 1) by (2 3) too
    s4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
    assert affine._chain_order(s4, [0, 1, 2])[0] == 24
    with pytest.raises(InvalidParameters):
        affine._chain_order(s4, [0, 1])
    # the affine action without its last unit row: AGL_2(Z_5) fixes a line
    # through two points pointwise with 20 elements
    chain = affine._chain_order
    monkeypatch.setattr(affine, "_chain_order", lambda perms, base: chain(perms, base[:-1]))
    with pytest.raises(InvalidParameters):
        generate_image(AffineParams(5, 2, 3))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 6).flatmap(
    lambda d: st.lists(st.permutations(range(d)).map(tuple), min_size=1, max_size=3)))
def test_chain_order_of_random_permutation_groups(perms):
    # with every point in the base only the identity fixes it
    d = len(perms[0])
    assert affine._chain_order(perms, list(range(d)))[0] == _perm_closure_order(perms)
    # so does every point in the reverse order
    assert affine._chain_order(perms, list(range(d))[::-1])[0] == _perm_closure_order(perms)


def _valid_params(max_points):
    """(m, t, n) for AffineParams with at most max_points stochastic rows."""
    cases = [(m, t, n) for m in range(3, 14) for t in range(2, m) if math.gcd(m, t) == 1
             for n in range(2, 7) if m ** (n - 1) <= max_points]
    return st.sampled_from(cases)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_valid_params(130))
def test_chain_order_against_agl_and_determinants(case):
    m, t, n = case
    result = generate_image(AffineParams(m, t, n), cap=10 ** 12)
    assert result.complete and result.residues is None
    full = agl_order(m, n - 1)
    pred = surjectivity_predicate(m, t)
    if pred["units_ok"] and pred["generates"]:
        assert result.order == full
    else:
        assert full % result.order == 0
    # det sigma_i = -t and det s_i = -1
    assert result.determinants == {v.residue for v in signed_power_set(m, t)}


@pytest.mark.parametrize("m,t,n,order", [(5, 2, 4, 186000000), (3, 2, 5, 1965150720),
                                         (7, 3, 4, 11587955904)])
def test_chain_certifies_surjectivity_at_scale(m, t, n, order):
    started = time.process_time()
    result = generate_image(AffineParams(m, t, n), cap=10 ** 11)
    elapsed = time.process_time() - started
    assert result.complete and result.order == agl_order(m, n - 1) == order
    assert elapsed < 2.0, elapsed


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


# Calls that must raise InvalidParameters, also under python -O (which
# strips assert statements), evaluated with this prelude; algebra_span is
# the test-only closure of arbitrary rational generators in helpers.py.
_BAD_CALLS_PRELUDE = ("from loopbraid.affine import agl_order, gl_order, surjectivity_predicate\n"
                      "from helpers import algebra_span\n"
                      "from loopbraid.linalg import Matrix, WeightedPerm\n"
                      "from loopbraid.modular import IntegersMod, subgroup_generated\n"
                      "from loopbraid.rings import QQ\n")
_BAD_CALLS = ["surjectivity_predicate(6, 3)", "surjectivity_predicate(9, 0)",
              "agl_order(5, 0)", "gl_order(5, -1)",
              "subgroup_generated(6, [5, 2])", "subgroup_generated(9, [3])",
              "algebra_span([])", "algebra_span([Matrix(QQ, [[1, 2]])])",
              "algebra_span([Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)])",
              "algebra_span([WeightedPerm.identity(QQ, 2), Matrix.identity(QQ, 3)])",
              "algebra_span([Matrix.identity(IntegersMod(5), 2)])"]


@pytest.mark.parametrize("call", _BAD_CALLS)
def test_exported_functions_reject_bad_input(call):
    namespace = {}
    exec(_BAD_CALLS_PRELUDE, namespace)
    with pytest.raises(InvalidParameters):
        eval(call, namespace)


def test_exported_functions_reject_bad_input_without_asserts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(loopbraid.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]))
    code = (_BAD_CALLS_PRELUDE +
            "import sys\n"
            "from loopbraid.errors import InvalidParameters\n"
            "for call in sys.argv[1:]:\n"
            "    try:\n        eval(call)\n"
            "    except InvalidParameters:\n        continue\n"
            "    raise SystemExit(call)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, *_BAD_CALLS],
                          env=env, timeout=60, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
