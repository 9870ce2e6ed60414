"""Combinatorial models for the geometry of points on the nodal curve xy = 0.

The scheme of n points on a reduced curve with m irreducible components has
binom(n+m-1, n) irreducible components, one per distribution of the points
over the branches.  For the node (m = 2) the component with k points
generically on the first branch is the blow-up of P^(n-k) x P^k along
P^(n-k-1) x P^(k-1); consecutive components meet along P^k x P^(n-k-1) and
all other intersections are empty.

Cohomology of a component has the explicit additive basis

    a^i b^j          0 <= i <= n-k, 0 <= j <= k        degree 2(i+j)
    zeta a^i b^j     0 <= i <= n-k-1, 0 <= j <= k-1    degree 2(i+j+1)

where a, b pull back the hyperplane classes of the two projective factors
and zeta is the first Chern class of O(1) on the exceptional divisor (so
zeta classes exist only for 1 <= k <= n-1).  Adding a fixed smooth point on
either branch embeds level n into level n+1; the induced pullbacks act
basis-wise (a^i b^j -> a^i b^j, zeta a^i b^j -> zeta a^i b^j), with the
first-branch map preserving the component index and the second-branch map
lowering it by one; any image whose exponents leave the target ranges is
zero, since the target ring has no such class.  A class of level n is a
``CohClass``, an ``exact.Combination`` of basis classes that all lie at
level n; the pullbacks and the kernels are written in it.

The module also carries the affine paving of the schemes of points: cells
are indexed by points on the two smooth loci plus a cell of the punctual
locus at the node, which is a chain of projective lines paved by one point
and affine lines.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import nodemodule
from .exact import Combination, add_into, frac_str
from .series import intersection_poincare


def component_count(n: int, m: int) -> int:
    """Number of irreducible components of the scheme of n points, m branches."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return math.comb(n + m - 1, n)


class _CohElemFields(NamedTuple):
    n: int
    k: int
    kind: str  # "plain" or "zeta"
    i: int
    j: int


class CohElem(_CohElemFields):
    """Basis class of a component: a^i b^j, with a zeta prefix when kind='zeta'."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, kind: str, i: int, j: int):
        self = super().__new__(cls, n, k, kind, i, j)
        if not _elem_valid(n, k, kind, i, j):
            raise ValueError(f"no such basis class: {self}")
        return self

    @property
    def degree(self) -> int:
        return 2 * (self.i + self.j + (1 if self.kind == "zeta" else 0))

    def label(self) -> str:
        bits = []
        if self.kind == "zeta":
            bits.append("zeta")
        if self.i:
            bits.append("a" + (f"^{self.i}" if self.i > 1 else ""))
        if self.j:
            bits.append("b" + (f"^{self.j}" if self.j > 1 else ""))
        return "*".join(bits) if bits else "1"

    def __str__(self):
        return f"{self.label()}@M({self.n},{self.k})"


def _elem_valid(n: int, k: int, kind: str, i: int, j: int) -> bool:
    if not (0 <= k <= n and i >= 0 and j >= 0):
        return False
    if kind == "plain":
        return i <= n - k and j <= k
    if kind == "zeta":
        return i <= n - k - 1 and j <= k - 1
    return False


def coh_basis(n: int, k: int) -> list[CohElem]:
    """Ordered additive basis of the cohomology of component (n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"component index {k} out of range for n={n}")
    elems = [
        CohElem(n, k, "plain", i, j)
        for i in range(n - k + 1)
        for j in range(k + 1)
    ]
    elems += [
        CohElem(n, k, "zeta", i, j)
        for i in range(max(n - k, 0))
        for j in range(max(k, 0))
    ]
    elems.sort(key=lambda e: (e.degree, e.kind, e.i, e.j))
    return elems


def poincare_from_basis(n: int, k: int) -> list[int]:
    """Degree census of the explicit basis; must match the product formula."""
    out = [0] * (n + 1)
    for e in coh_basis(n, k):
        out[e.degree // 2] += 1
    return out


class CohClass(Combination):
    """Exact linear combination of basis classes at one level ``n``.

    The level is the size ``m`` of :class:`exact.Combination`, which holds
    the arithmetic; every basis class must be at it.  Classes add and scale
    but do not multiply, and levels are not range-checked.
    """

    __slots__ = ()
    _min_m = None

    @property
    def n(self) -> int:
        return self.m

    def _key(self, e: CohElem) -> CohElem:
        if e.n != self.m:
            raise ValueError(f"class {e} is not at level {self.m}")
        return e

    def sorted_terms(self):
        return sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].k, kv[0].degree, kv[0].kind, kv[0].i, kv[0].j)
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"{frac_str(c)}*" if c != 1 else "") + str(e) for e, c in self.sorted_terms()
        )


def _moved(e: CohElem, new_k: int) -> CohElem | None:
    """The same-exponent class one level down in component new_k, or None."""
    n2 = e.n - 1
    if not _elem_valid(n2, new_k, e.kind, e.i, e.j):
        return None
    # validated just above, so CohElem's own check is skipped
    return _CohElemFields.__new__(CohElem, n2, new_k, e.kind, e.i, e.j)


def _pullback(c: CohClass, shift: int) -> CohClass:
    # the terms of c are clean and _moved validates each key at level n - 1
    moved = ((_moved(e, e.k - shift), v) for e, v in c.coeffs.items())
    return CohClass._from_clean(c.n - 1, add_into({}, ((t, v) for t, v in moved if t is not None)))


def pullback_x1(c: CohClass) -> CohClass:
    """Restriction along adding a point on the first branch: component k -> k."""
    return _pullback(c, 0)


def pullback_x2(c: CohClass) -> CohClass:
    """Restriction along adding a point on the second branch: component k -> k-1."""
    return _pullback(c, 1)


class PullbackCollision(ValueError):
    """Two source classes of component (n, k) restrict to one target class."""

    def __init__(self, n: int, k: int, tag: str, target: CohElem, sources: tuple):
        super().__init__(
            f"pullback {tag} sends {' and '.join(map(str, sources))} to {target}"
        )
        self.n, self.k, self.tag, self.target, self.sources = n, k, tag, target, sources


def _unhit_classes(n: int, source: list[CohElem], hit: set[int]) -> list[CohClass]:
    """The class of each source column that no row hits, in source order."""
    return [CohClass(n, {e: 1}) for col, e in enumerate(source) if col not in hit]


def kernel_intersection(n: int) -> dict[int, list[CohClass]]:
    """Joint kernel of both pullbacks on each component, below the top degree.

    For each component k of level n, the exact basis of the classes of
    degree < 2n killed by both restriction maps.  The answer is the span of
    the single top zeta class zeta a^(n-k-1) b^(k-1) for 1 <= k <= n-1 and
    zero for the two end components.

    The basis is read off, not eliminated.  Each basis class of degree
    < 2n is pulled back along both maps, and an image counts as a row of
    the matrix when it lands in component k (x1) or k-1 (x2).  A pullback
    sends distinct basis classes to distinct classes or to zero, so every
    row has at most one entry, and the kernel is spanned by the classes
    whose column no row hits.  That read-off is guarded at run time: a row
    hit by a second column raises :class:`PullbackCollision` with the
    component, the map and the target class.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    result: dict[int, list[CohClass]] = {}
    for k in range(n + 1):
        source = [e for e in coh_basis(n, k) if e.degree < 2 * n]
        maps = (("x1", pullback_x1, k), ("x2", pullback_x2, k - 1))
        rows: dict = {}  # (tag, target class) -> the one column that hits it
        for col, e in enumerate(source):
            cls = CohClass(n, {e: 1})
            for tag, pb, target_k in maps:
                for t in pb(cls).coeffs:
                    if t.k == target_k and rows.setdefault((tag, t), col) != col:
                        raise PullbackCollision(n, k, tag, t, (source[rows[tag, t]], e))
        result[k] = _unhit_classes(n, source, set(rows.values()))
    return result


def top_zeta_class(n: int, k: int) -> CohClass:
    """zeta a^(n-k-1) b^(k-1), the unique top-degree zeta basis class."""
    return CohClass(n, {CohElem(n, k, "zeta", n - k - 1, k - 1): 1})


def mv_dimension_check(n: int) -> dict:
    """Components minus intersections must give the module dimensions, degreewise."""
    if n < 0:
        raise ValueError("need n >= 0")
    rows = []
    ok_all = True
    for j in range(n + 1):
        comp = sum(poincare_from_basis(n, k)[j] for k in range(n + 1))
        inter = 0
        for k in range(n):
            poly = intersection_poincare(n, k)
            if j < len(poly):
                inter += poly[j]
        expected = nodemodule.dim_piece(n, 2 * j)
        ok = comp - inter == expected
        ok_all = ok_all and ok
        rows.append(
            {
                "degree": 2 * j,
                "components": comp,
                "intersections": inter,
                "module_dimension": expected,
                "status": "pass" if ok else "fail",
            }
        )
    return {"name": "mayer-vietoris-dimensions", "n": n, "status": "pass" if ok_all else "fail", "rows": rows}


# -- affine paving -------------------------------------------------------------


class PavingCell(NamedTuple):
    """One affine cell: a, b points on the smooth branches, c at the node.

    d selects the cell in the punctual chain (0 is the chosen point-cell,
    d >= 1 are the affine line cells); the cell dimension is
    a + b + (1 if d >= 1 else 0).
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def dim(self) -> int:
        return self.a + self.b + (1 if self.d >= 1 else 0)


def punctual_cells(c: int) -> list[PavingCell]:
    """Cells of the punctual locus of length c at the node.

    A chain of c-1 projective lines: one point-cell and c-1 affine lines
    (for c = 0 the single empty cell).
    """
    if c < 0:
        raise ValueError("length must be >= 0")
    if c <= 1:
        return [PavingCell(0, 0, c, 0)]
    return [PavingCell(0, 0, c, d) for d in range(c)]


def paving_cells(n: int) -> list[PavingCell]:
    """All cells of the scheme of n points, in a fixed deterministic order."""
    if n < 0:
        raise ValueError("need n >= 0")
    cells = []
    for a in range(n + 1):
        for b in range(n - a + 1):
            c = n - a - b
            for pc in punctual_cells(c):
                cells.append(PavingCell(a, b, c, pc.d))
    return cells


def paving_census(n: int) -> list[int]:
    """Generating polynomial (in t^2) of cell dimensions at level n."""
    out = [0] * (n + 1)
    for cell in paving_cells(n):
        out[cell.dim] += 1
    return out
