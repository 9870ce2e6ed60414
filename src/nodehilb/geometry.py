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
zero, since the target ring has no such class.  So each pullback sends a
basis class (a ``CohElem``) to one basis class or to zero (``None``), and
the kernels are lists of basis classes.

``_elem_valid`` is the one range rule for basis classes, and ``CohElem``
checks nothing: ``coh_basis`` enumerates only the ranges above, ``_moved``
applies the rule before it builds an image, and ``top_zeta_class`` is asked
only for 0 < k < n.

The module also carries the affine paving of the schemes of points: cells
are indexed by points on the two smooth loci plus a cell of the punctual
locus at the node, which is a chain of projective lines paved by one point
and affine lines.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import series


def component_count(n: int, m: int) -> int:
    """Number of irreducible components of the scheme of n points, m branches."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return math.comb(n + m - 1, n)


class CohElem(NamedTuple):
    """Basis class of a component: a^i b^j, with a zeta prefix when kind='zeta'.

    Unchecked: only ``coh_basis``, ``_moved`` and ``top_zeta_class`` build
    one, each from exponents that ``_elem_valid`` accepts.
    """

    n: int
    k: int
    kind: str  # "plain" or "zeta"
    i: int
    j: int

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
    # sorted by half the degree, then kind, i, j (fields 2, 3, 4)
    elems = [CohElem(n, k, "plain", i, j) for i in range(n - k + 1) for j in range(k + 1)]
    elems += [CohElem(n, k, "zeta", i, j) for i in range(n - k) for j in range(k)]
    elems.sort(key=lambda e: (e[3] + e[4] + (e[2] == "zeta"), e[2], e[3], e[4]))
    return elems


def poincare_from_basis(n: int, k: int) -> list[int]:
    """Degree census of the explicit basis; must match the product formula."""
    out = [0] * (n + 1)
    for e in coh_basis(n, k):
        out[e.degree // 2] += 1
    return out


def _moved(e: CohElem, new_k: int) -> CohElem | None:
    """The same-exponent class one level down in component new_k, or None."""
    n2 = e.n - 1
    if not _elem_valid(n2, new_k, e.kind, e.i, e.j):
        return None
    return CohElem(n2, new_k, e.kind, e.i, e.j)


def pullback_x1(e: CohElem) -> CohElem | None:
    """Restriction along adding a point on the first branch: component k -> k."""
    return _moved(e, e.k)


def pullback_x2(e: CohElem) -> CohElem | None:
    """Restriction along adding a point on the second branch: component k -> k-1."""
    return _moved(e, e.k - 1)


class PullbackCollision(ValueError):
    """Two source classes of component (n, k) restrict to one target class."""

    def __init__(self, n: int, k: int, tag: str, target: CohElem, sources: tuple):
        super().__init__(
            f"pullback {tag} sends {' and '.join(map(str, sources))} to {target}"
        )
        self.n, self.k, self.tag, self.target, self.sources = n, k, tag, target, sources


def kernel_intersection(n: int) -> dict[int, list[CohElem]]:
    """Joint kernel of both pullbacks on each component, below the top degree.

    For each component k of level n, the basis classes of degree < 2n that
    span the classes killed by both restriction maps.  The answer is the
    single top zeta class zeta a^(n-k-1) b^(k-1) for 1 <= k <= n-1 and no
    class for the two end components.

    The basis is read off, not eliminated.  Each basis class of degree
    < 2n is pulled back along both maps, and an image counts as a hit when
    it lands in component k (x1) or k-1 (x2).  A pullback sends distinct
    basis classes to distinct classes or to zero, so the kernel is spanned
    by the source classes that hit nothing.  That read-off is guarded at
    run time: a target hit by a second source class raises
    :class:`PullbackCollision` with the component, the map and the target.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    result: dict[int, list[CohElem]] = {}
    for k in range(n + 1):
        source = [e for e in coh_basis(n, k) if e.degree < 2 * n]
        maps = (("x1", pullback_x1, k), ("x2", pullback_x2, k - 1))
        hits: dict = {}  # (tag, target class) -> the one source class that hits it
        for e in source:
            for tag, pb, target_k in maps:
                t = pb(e)
                if t is not None and t.k == target_k and hits.setdefault((tag, t), e) != e:
                    raise PullbackCollision(n, k, tag, t, (hits[tag, t], e))
        hitting = set(hits.values())
        result[k] = [e for e in source if e not in hitting]
    return result


def top_zeta_class(n: int, k: int) -> CohElem:
    """zeta a^(n-k-1) b^(k-1), the unique top-degree zeta basis class, for 0 < k < n."""
    return CohElem(n, k, "zeta", n - k - 1, k - 1)


def mv_dimensions(n: int) -> list[int]:
    """Components (read off the bases) minus intersections in degree 2j, j = 0..n.

    By Mayer-Vietoris these are the module dimensions ``nodemodule.dim_piece(n, 2j)``.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    out = [sum(col) for col in zip(*(poincare_from_basis(n, k) for k in range(n + 1)))]
    for k in range(n):
        for j, v in enumerate(series.intersection_poincare(n, k)):
            out[j] -= v
    return out


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


def paving_cells(n: int) -> list[PavingCell]:
    """All cells of the scheme of n points, in a fixed deterministic order.

    The punctual locus of length c at the node is a chain of c-1 projective
    lines: one point-cell and c-1 affine lines (for c <= 1 the single
    point-cell), so c points at the node give the cells d < max(c, 1).
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return [
        PavingCell(a, b, n - a - b, d)
        for a in range(n + 1)
        for b in range(n - a + 1)
        for d in range(max(n - a - b, 1))
    ]


def paving_census(n: int, cells: list[PavingCell]) -> list[int]:
    """Generating polynomial (in t^2) of the dimensions of ``cells``, the cells of level n."""
    dims = [cell.dim for cell in cells]
    # at least n+1 slots, and more if a cell is too high, so a comparison can name that slot
    out = [0] * (max(dims + [n]) + 1)
    for d in dims:
        out[d] += 1
    return out
