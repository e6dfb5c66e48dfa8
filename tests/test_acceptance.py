"""Acceptance criteria, one test per criterion at its stated tolerance.

Exact arithmetic everywhere, so tolerance means literal equality; each
test also enforces its runtime budget and prints one PASS line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live).
"""

import itertools
import math
import time
from fractions import Fraction

from helpers import determinant_profile
from loopbraid.affine import (AffineParams, agl_order, drinfeld_r_permutation,
                              generate_image, gl_order, proof_word_landmarks,
                              rho_generators, signed_power_set,
                              surjectivity_predicate)
from loopbraid.analysis import (bmw_check, end_dim, hom_dim, is_e_null,
                                localization_report, restrict_and_branch,
                                semisimplicity_check, spin_dimension,
                                verify_young_branching, harmonic_end_dims)
from loopbraid.braided import affine_bvs, swap_operator
from loopbraid.linalg import Matrix, RowSpan
from loopbraid.rings import QQ, IntegersMod
from loopbraid.tensor import (TauRep, charge_blocks, f_columns, f_operator, full_images,
                              harmonic_decompose, harmonic_dims, localized_young_dim,
                              localized_harmonic_prediction, localize,
                              partition_block, young_module)
from loopbraid.words import check_relations, relations_for


def _stamp(name, budget, started):
    elapsed = time.monotonic() - started
    print("%s: PASS (%.1fs, budget %ds)" % (name, elapsed, budget))
    assert elapsed < budget, "%s exceeded its %ds budget: %.1fs" % (name, budget, elapsed)


def _vec(block, pairs):
    v = [QQ.zero] * block.dim
    for word, coeff in pairs:
        v[block.index[tuple(int(c) for c in word)]] = Fraction(coeff)
    return v


def test_c01_relation_suites():
    started = time.monotonic()
    for N in (2, 3):
        for n in range(2, 6):
            for x in (Fraction(2), Fraction(3), Fraction(7, 2)):
                images = full_images(TauRep(N, x), n)
                for variant in ("LB", "SLB"):
                    report = check_relations(images, relations_for(n, variant))
                    assert report.ok, (N, n, x, variant, report.failed_labels())
    _stamp("C01 tensor relation suites", 30, started)


def test_c02_affine_non_factoring():
    started = time.monotonic()
    for (m, t) in ((3, 2), (5, 2), (5, 3), (7, 3)):
        for n in (2, 3, 4):
            images = rho_generators(AffineParams(m, t, n))
            assert check_relations(images, relations_for(n, "LB")).ok, (m, t, n)
            if n >= 3:  # the symmetric relation needs three strands
                report = check_relations(images, relations_for(n, "SLB"))
                failed = [r for r in report.results if not r.ok]
                assert failed and all(r.label.startswith("L3") for r in failed)
                assert all(r.witness is not None for r in failed)
    _stamp("C02 affine family fails exactly L3", 10, started)


def test_c03_image_orders():
    started = time.monotonic()
    expected = {(3, 2, 2): 6, (3, 2, 3): 432, (5, 2, 2): 20, (9, 2, 2): 54}
    for (m, t, n), order in expected.items():
        result = generate_image(AffineParams(m, t, n))
        assert result.complete and result.order == order, (m, t, n, result.order)
        pred = surjectivity_predicate(m, t)
        assert pred["units_ok"] and pred["generates"]
        assert order == agl_order(m, n - 1)
    # the proper-subgroup case with its determinant profile
    p = AffineParams(13, 3, 2)
    result = generate_image(p, keep_elements=True)
    assert result.order == 78 < agl_order(13, 1) == 156
    dets = {d.residue for d in determinant_profile(p, result.elements)}
    assert dets == {d.residue for d in signed_power_set(13, 3)}
    assert len(dets) == 6
    # expected_order oracle: exhaustive GL counts for m <= 5, k <= 2
    for m in (2, 3, 4, 5):
        for k in (1, 2):
            ring = IntegersMod(m)
            count = 0
            for entries in itertools.product(range(m), repeat=k * k):
                mat = Matrix.from_int_rows(
                    ring, [list(entries[i * k:(i + 1) * k]) for i in range(k)])
                if ring.is_unit(mat.det()):
                    count += 1
            assert gl_order(m, k) == count
    _stamp("C03 image orders by closure", 120, started)


def test_c04_proof_word_landmarks():
    started = time.monotonic()
    out = proof_word_landmarks(AffineParams(7, 3, 3))
    assert out["ok"]
    assert out["T"] == out["T_expected"]
    assert out["T_pow_k"] == out["T0_expected"]
    _stamp("C04 proof-word landmarks", 1, started)


def test_c05_ybe_and_drinfeld():
    started = time.monotonic()
    for m in range(2, 10):
        for t in range(2, m):
            if math.gcd(m, t) != 1 or t % m == 1:
                continue
            assert affine_bvs(m, t).yang_baxter(), (m, t)
    # the 25x25 double braiding equals the factor-swapped affine braiding,
    # equivalently the literal transpose at the inverse parameter
    c = affine_bvs(5, 2).c
    s = swap_operator(c.ring, 5)
    r_hat = drinfeld_r_permutation(5, 2)
    assert r_hat == (s * c) * s
    assert r_hat.to_matrix() == affine_bvs(5, 3).c.to_matrix().transpose()
    _stamp("C05 Yang-Baxter and double braiding", 5, started)


def test_c06_bmw_certification():
    started = time.monotonic()
    report2 = bmw_check(2)
    assert report2.ok, {k: v["ok"] for k, v in report2.relations.items()}
    assert set(report2.relations) == \
        {"u_definition", "r1", "r2", "rloc", "u_squared", "tl"}
    report3 = bmw_check(3)
    assert not report3.relations["r2"]["ok"]
    assert report3.relations["r2"]["witness"] is not None
    assert report3.relations["r1"]["ok"]
    assert report3.relations["rloc"]["ok"]
    assert report3.relations["u_squared"]["ok"]
    _stamp("C06 cubic algebra certificates", 30, started)


def test_c07_decomposition_bookkeeping():
    started = time.monotonic()
    blocks, index = charge_blocks(3, 4)
    total = 0
    for lam, mult in index:
        block = partition_block(3, 4, lam)
        total += mult * block.dim
        mods = harmonic_decompose(block, TauRep(3, Fraction(2)))
        assert sum(m.label.delta_dim() * m.dim for m in mods) == block.dim
    assert total == 81
    # the computed antisymmetric piece of (2,1,1) spans the same subspace
    # as the six listed difference vectors
    block = partition_block(3, 4, (2, 1, 1))
    mods = harmonic_decompose(block, TauRep(3, Fraction(2)))
    target = [m for m in mods if m.label.mu == ((1,), (1, 1))][0]
    listed = RowSpan(block.dim)
    for a, b in (("1123", "1132"), ("1213", "1312"), ("1231", "1321"),
                 ("2113", "3112"), ("2131", "3121"), ("2311", "3211")):
        v = _vec(block, [(a, 1), (b, -1)])
        assert target.contains(v)
        listed.insert(v)
    assert listed.dim == target.dim == 6
    _stamp("C07 charge decomposition bookkeeping", 10, started)


def test_c08_null_and_localization_lemmas():
    started = time.monotonic()
    x2 = TauRep(2, Fraction(2))
    # two-color nullity: single-row blocks die as whole modules (the
    # depth-zero case of the localization lemma); among proper harmonic
    # pieces only the antisymmetric two-color line is annihilated
    for n in range(2, 6):
        for lam, _ in charge_blocks(2, n)[1]:
            block = partition_block(2, n, lam)
            f2 = f_columns(2, block)
            for mod in harmonic_decompose(block, x2):
                expected = (len(lam) < 2) or \
                    (lam == (1, 1) and mod.label.mu == ((1, 1),))
                assert is_e_null(mod, f2) == expected, (n, lam, mod.label)
    # f_3 kills the antisymmetric hook family
    for n in (4, 5, 6):
        block = partition_block(3, n, (n - 2, 1, 1))
        f3 = f_columns(3, block)
        mods = harmonic_decompose(block, TauRep(3, Fraction(2)))
        anti = [m for m in mods if m.label.mu == ((1,), (1, 1))][0]
        assert is_e_null(anti, f3)
    # localized Young dimensions, N <= 3, n <= 6
    for N in (2, 3):
        for n in range(N, 7):
            for lam, _ in charge_blocks(N, n)[1]:
                block = partition_block(N, n, lam)
                rep = TauRep(N, Fraction(2))
                pred = localized_young_dim(N, lam, n)
                if n == N:
                    got = _rank(f_operator(N, block), block.dim)
                else:
                    loc, ok = localize(f_columns(N, block), young_module(block, rep))
                    assert ok
                    got = 0 if loc is None else loc.dim
                assert got == pred, (N, n, lam, got, pred)
    # the four-case table on all harmonic labels at N=3, n <= 6
    for n in range(4, 7):
        dims = harmonic_dims(3, n - 3)
        for lam, _ in charge_blocks(3, n)[1]:
            block = partition_block(3, n, lam)
            rep = TauRep(3, Fraction(2))
            f = f_columns(3, block)
            for mod in harmonic_decompose(block, rep):
                loc, ok = localize(f, mod)
                assert ok
                got = 0 if loc is None else loc.dim
                label, pred = localized_harmonic_prediction(3, mod.label, dims)
                assert got == pred, (n, mod.label, got, pred)
    _stamp("C08 null and localization lemmas", 120, started)


def _rank(mat, width):
    span = RowSpan(width)
    for j in range(width):
        span.insert([mat.rows[i][j] for i in range(width)])
    return span.dim


def test_c09_branching():
    started = time.monotonic()
    # removable-box rule for every Young module, N <= 3, n <= 6, by
    # explicit fiber isomorphisms
    for N in (2, 3):
        for n in range(2, 7):
            for lam, _ in charge_blocks(N, n)[1]:
                assert verify_young_branching(N, lam), (N, lam)
    x3 = TauRep(3, Fraction(2))

    def harmonic(nn, lam, mu):
        mods = harmonic_decompose(partition_block(3, nn, lam), x3)
        return [m for m in mods if m.label.mu == mu][0]

    def branch_set(mod):
        report = restrict_and_branch(mod)
        assert report.verified
        return {(tuple(s["label"]["lambda"]),
                 tuple(tuple(m) for m in s["label"]["mu"]), s["multiplicity"])
                for s in report.summands}

    # the hook block: its symmetric piece restricts to the full (2,1)
    # module plus both deep harmonic pieces
    got = branch_set(harmonic(4, (2, 1, 1), ((1,), (2,))))
    assert got == {((2, 1), ((1,), (1,)), 1),
                   ((1, 1, 1), ((3,),), 1),
                   ((1, 1, 1), ((2, 1),), 1)}
    # the (2,2,1) symmetric piece, with its explicit generating element
    mod = harmonic(5, (2, 2, 1), ((2,), (1,)))
    got = branch_set(mod)
    assert got == {((2, 1, 1), ((1,), (2,)), 1),
                   ((2, 1, 1), ((1,), (1, 1)), 1),
                   ((2, 2), ((2,),), 1)}
    block = mod.block
    v = _vec(block, [("11223", 1), ("22113", 1)])
    assert mod.contains(v)
    assert spin_dimension(block, x3, v) == mod.dim == 15
    # the eight-strand case on the 420-dimensional block
    mod = harmonic(8, (4, 2, 2), ((1,), (2,)))
    assert mod.block.dim == 420 and mod.dim == 210
    got = branch_set(mod)
    assert got == {((4, 2, 1), ((1,), (1,), (1,)), 1),
                   ((3, 2, 2), ((1,), (2,)), 1)}
    # a good-basis probe: one braid step moves a listed vector across summands
    v = _vec(mod.block, [("11123213", 1), ("11132312", 1)])
    assert mod.contains(v)
    op = mod.block.sigma_op(7, x3)
    out = [QQ.zero] * mod.block.dim
    for j, val in enumerate(v):
        if val:
            out[op.tgt[j]] += op.wts[j] * val
    assert out == _vec(mod.block, [("11123231", 1), ("11132321", 1)])
    assert mod.contains(_vec(mod.block, [("11112233", 1), ("11113322", 1)]))
    _stamp("C09 branching rules", 300, started)


def test_c10_irreducibility_and_non_isomorphism():
    started = time.monotonic()
    for N, nmax in ((2, 6), (3, 5)):
        for n in range(2, nmax + 1):
            for x in (Fraction(2), Fraction(3)):
                rep = TauRep(N, x)
                mods = []
                for lam, _ in charge_blocks(N, n)[1]:
                    mods.extend(harmonic_decompose(partition_block(N, n, lam), rep))
                for m in mods:
                    assert end_dim(m) == 1, (N, n, x, m.label)
                for m1, m2 in itertools.combinations(mods, 2):
                    assert hom_dim(m1, m2) == 0, (N, n, x, m1.label, m2.label)
    # the degenerate parameter admits the symmetrized invariant line
    xm1 = TauRep(2, Fraction(-1))
    block = partition_block(2, 3, (2, 1))
    assert end_dim(young_module(block, xm1)) != 1
    line = _vec(block, [("112", 1), ("121", -1), ("211", 1)])
    assert spin_dimension(block, xm1, line) == 1
    assert spin_dimension(block, TauRep(2, Fraction(2)), line) == 3
    _stamp("C10 irreducibility and non-isomorphism", 300, started)


def test_c11_semisimplicity_and_triangle():
    started = time.monotonic()
    for N in (2, 3):
        for n in (2, 3, 4):
            out = semisimplicity_check(N, n, Fraction(2))
            assert out["radical_dim"] == 0, (N, n, out)
    for n in (2, 3, 4):
        report = localization_report(2, n, Fraction(2))
        assert report["triangle_ok"], (n, report)
        assert report["simple_count"] == \
            report["localized_count"] + report["quotient_count"]
    _stamp("C11 semisimplicity and localization triangle", 180, started)


def test_c12_exploratory_higher_rank():
    # reported, not asserted: evidence for the higher-rank conjecture
    started = time.monotonic()
    for n in (4, 5):
        table = harmonic_end_dims(4, n, Fraction(2))
        print("exploratory N=4 n=%d:" % n)
        for entry in table:
            print("   %s dim=%d end_dim=%d"
                  % (entry["label"], entry["dim"], entry["end_dim"]))
        assert all(e["dim"] >= 1 for e in table)
    print("C12 exploratory sweep: REPORTED (%.1fs)" % (time.monotonic() - started))
