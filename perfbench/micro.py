"""Per-layer microbenchmarks: scalar ring ops (too fine-grained to span) and
one fixed input per layer from the ROADMAP list.  Inputs come from the
seed; each figure is the median of several repetitions."""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

REPEATS = 7


def _median_time(fn):
    gc.collect()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rand_fraction(rng):
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))


def run(seed):
    """Return {metric name: (value, unit)}."""
    from loopbraid.affine import AffineParams, generate_image
    from loopbraid.analysis import bmw_check, hom_space
    from loopbraid.linalg import RowSpan, WeightedPerm
    from loopbraid.rings import QQ, LaurentPoly, ZmInt
    from loopbraid.tensor import TauRep, partition_block

    rng = random.Random(seed)
    out = {}

    k = 20000
    zm = [(ZmInt(rng.randrange(101), 101), ZmInt(rng.randrange(101), 101)) for _ in range(k)]

    def zm_mul():
        for a, b in zm:
            a * b
    out["rings.zmint_mul_ns"] = (_median_time(zm_mul) / k * 1e9, "ns")

    fr = [tuple(_rand_fraction(rng) for _ in range(3)) for _ in range(k)]

    def axpy():
        for a, f, b in fr:
            a - f * b
    out["rings.fraction_axpy_ns"] = (_median_time(axpy) / k * 1e9, "ns")

    def laurent():
        return LaurentPoly({e: Fraction(rng.randint(-9, 9) or 1) for e in range(-2, 3)})
    lp = [(laurent(), laurent()) for _ in range(500)]

    def laurent_mul():
        for a, b in lp:
            a * b
    out["rings.laurent_mul_ns"] = (_median_time(laurent_mul) / len(lp) * 1e9, "ns")

    d = 420
    perms = []
    for _ in range(2):
        tgt = list(range(d))
        rng.shuffle(tgt)
        perms.append(WeightedPerm(QQ, tgt, [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                            for _ in range(d)]))
    p, q = perms

    def compose():
        for _ in range(100):
            p * q
    out["linalg.wperm_compose_us"] = (_median_time(compose) / 100 * 1e6, "us")

    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(24)] for _ in range(24)]

    def rank():
        span = RowSpan(24)
        for r in rows:
            span.insert(r)
    out["linalg.rowspan_rank_ms"] = (_median_time(rank) * 1e3, "ms")

    block = partition_block(3, 5, (2, 2, 1))
    rep = TauRep(3, Fraction(2))
    ops = [op for j in range(1, 5) for op in (block.sigma_op(j, rep), block.s_op(j, rep))]
    out["analysis.hom_space_ms"] = (
        _median_time(lambda: hom_space(ops, ops, block.dim, block.dim)) * 1e3, "ms")

    params = AffineParams(5, 2, 3)
    out["affine.closure_level_ms"] = (
        _median_time(lambda: generate_image(params, cap=1000)) * 1e3, "ms")

    def bmw():
        for _ in range(5):
            bmw_check(2, 3)
    out["analysis.bmw_check_n2_ms"] = (_median_time(bmw) / 5 * 1e3, "ms")
    return out
