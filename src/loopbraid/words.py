"""Generators, words and defining relations of LB_n and its relatives.

Words multiply left to right and act on column vectors with the leftmost
letter applied last, i.e. evaluate_word([a, b]) is image(a) * image(b).
The transposed switch evaluates the reversed word instead, which is the
opposite composition convention; a relation involving L2 under one
convention becomes the corresponding L3 relation under the other.
"""

from __future__ import annotations

from .errors import InvalidParameters, SingularImage
from .linalg import CodedPerm, op_dim, op_identity_like

VARIANTS = ("LB", "OLB", "VB", "SLB")


class Generator:
    """sigma_index or s_index to the power exp; compared and hashed by value."""

    __slots__ = ("kind", "index", "exp")

    def __init__(self, kind: str, index: int, exp: int = 1):
        if kind not in ("sigma", "s"):
            raise InvalidParameters("unknown generator kind %r (expected sigma or s)" % (kind,))
        if exp not in (1, -1):
            raise InvalidParameters("generator exponent must be 1 or -1, got %r" % (exp,))
        self.kind = kind
        self.index = index          # 1-based strand position
        # s_i is an involution; normalize s_i^-1 to s_i
        self.exp = 1 if kind == "s" else exp

    def _key(self):
        return self.kind, self.index, self.exp

    def __eq__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def inv(self):
        return Generator(self.kind, self.index, -self.exp)

    def __repr__(self):
        base = "%s%d" % (self.kind, self.index)
        return base + ("^-1" if self.exp == -1 else "")


def sigma(i, exp=1):
    return Generator("sigma", i, exp)


def s_(i):
    return Generator("s", i)


GroupWord = tuple  # tuple of Generator; empty tuple is the identity


class Relation:
    """label: left = right; compared and hashed by value."""

    __slots__ = ("label", "left", "right")

    def __init__(self, label: str, left: GroupWord, right: GroupWord):
        self.label = label
        self.left = left
        self.right = right

    def _key(self):
        return self.label, self.left, self.right

    def __eq__(self, other):
        if other.__class__ is not Relation:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class RelationSet:
    __slots__ = ("variant", "n", "relations")

    def __init__(self, variant: str, n: int, relations: list):
        self.variant = variant
        self.n = n
        self.relations = relations

    def labels(self):
        return [r.label for r in self.relations]


def relations_for(n: int, variant: str) -> RelationSet:
    """The defining relation list for the chosen variant at strand count n.

    Ordering is deterministic: B1, B2, S1, S2, S3, L0, L1, L2 (or L3),
    indices ascending.  VB omits L2; OLB replaces L2 by L3; SLB carries
    both L2 and L3.
    """
    if n < 2:
        raise InvalidParameters("relations need at least 2 strands, got %d" % n)
    if variant not in VARIANTS:
        raise InvalidParameters("unknown variant %r (expected one of %s)"
                                % (variant, ", ".join(VARIANTS)))
    rels = []

    def braid(label, g, i):
        return Relation("%s(i=%d)" % (label, i),
                        (g(i), g(i + 1), g(i)),
                        (g(i + 1), g(i), g(i + 1)))

    for i in range(1, n - 1):
        rels.append(braid("B1", sigma, i))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(Relation("B2(i=%d,j=%d)" % (i, j),
                                 (sigma(i), sigma(j)), (sigma(j), sigma(i))))
    for i in range(1, n - 1):
        rels.append(braid("S1", s_, i))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append(Relation("S2(i=%d,j=%d)" % (i, j),
                                 (s_(i), s_(j)), (s_(j), s_(i))))
    for i in range(1, n):
        rels.append(Relation("S3(i=%d)" % i, (s_(i), s_(i)), ()))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                rels.append(Relation("L0(i=%d,j=%d)" % (i, j),
                                     (sigma(i), s_(j)), (s_(j), sigma(i))))
    for i in range(1, n - 1):
        rels.append(Relation("L1(i=%d)" % i,
                             (s_(i), s_(i + 1), sigma(i)),
                             (sigma(i + 1), s_(i), s_(i + 1))))
    if variant in ("LB", "SLB"):
        for i in range(1, n - 1):
            rels.append(Relation("L2(i=%d)" % i,
                                 (sigma(i), sigma(i + 1), s_(i)),
                                 (s_(i + 1), sigma(i), sigma(i + 1))))
    if variant in ("OLB", "SLB"):
        for i in range(1, n - 1):
            rels.append(Relation("L3(i=%d)" % i,
                                 (s_(i), sigma(i + 1), sigma(i)),
                                 (sigma(i + 1), sigma(i), s_(i + 1))))
    return RelationSet(variant, n, rels)


class _ImageTable:
    """Caches generator images and their inverses for word evaluation."""

    def __init__(self, images):
        self.images = dict(images)
        self._inv = {}
        dims = {op_dim(v) for v in self.images.values()}
        if len(dims) > 1:
            raise ValueError("generator images have mixed dimensions: %s" % dims)

    def get(self, g: Generator):
        key = (g.kind, g.index)
        if key not in self.images:
            raise KeyError("no image for generator %r" % (g,))
        if g.exp == 1:
            return self.images[key]
        if key not in self._inv:
            try:
                self._inv[key] = self.images[key].inverse()
            except SingularImage:
                raise SingularImage("image of %r is not invertible" % (g,))
        return self._inv[key]

    def some_image(self):
        return next(iter(self.images.values()))


def evaluate_word(images, word: GroupWord, transposed=False):
    """Product of generator images in word order (leftmost applied last)."""
    table = images if isinstance(images, _ImageTable) else _ImageTable(images)
    if transposed:
        word = tuple(reversed(word))
    out = None
    for g in word:
        m = table.get(g)
        out = m if out is None else out * m
    if out is None:
        return op_identity_like(table.some_image())
    return out


class RelationResult:
    __slots__ = ("label", "ok", "witness")

    def __init__(self, label: str, ok: bool, witness: dict | None = None):
        self.label = label
        self.ok = ok
        self.witness = witness

    def to_json(self):
        d = {"label": self.label, "ok": self.ok}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


class RelationReport:
    __slots__ = ("variant", "n", "results")

    def __init__(self, variant: str, n: int):
        self.variant = variant
        self.n = n
        self.results = []

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failed_labels(self):
        return [r.label for r in self.results if not r.ok]

    def to_json(self):
        return {"variant": self.variant, "n": self.n,
                "results": [r.to_json() for r in self.results], "ok": self.ok}


def _first_difference(lhs, rhs):
    a = lhs.to_matrix() if hasattr(lhs, "to_matrix") else lhs
    b = rhs.to_matrix() if hasattr(rhs, "to_matrix") else rhs
    for i in range(a.nrows):
        for j in range(a.ncols):
            if a.rows[i][j] != b.rows[i][j]:
                return {"position": [i, j],
                        "left": str(a.rows[i][j]), "right": str(b.rows[i][j])}
    return None


def check_relations(images, rels: RelationSet, transposed=False) -> RelationReport:
    """Evaluate both sides of every relation; witness the first bad entry.

    When every image is a WeightedPerm over the rationals or the Laurent
    ring whose weights are +-b^k for one base b, the words are composed as
    linalg.CodedPerms, on weight codes; otherwise the images are used as
    given."""
    table = _ImageTable(_coded(images) or images)
    report = RelationReport(rels.variant, rels.n)
    for rel in rels.relations:
        lhs = evaluate_word(table, rel.left, transposed)
        rhs = evaluate_word(table, rel.right, transposed)
        if lhs == rhs:
            report.results.append(RelationResult(rel.label, True))
        else:
            report.results.append(RelationResult(rel.label, False,
                                                 _first_difference(lhs, rhs)))
    return report


def _coded(images):
    """The images as CodedPerms, or None unless they all code."""
    try:
        return dict(zip(images, CodedPerm.from_ops(list(images.values()))))
    except InvalidParameters:
        return None
