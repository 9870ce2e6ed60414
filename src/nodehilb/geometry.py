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
zero, since the target ring has no such class.

The module also carries the affine paving of the schemes of points: cells
are indexed by points on the two smooth loci plus a cell of the punctual
locus at the node, which is a chain of projective lines paved by one point
and affine lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import nodemodule
from .exact import frac_str, kernel_basis
from .series import intersection_poincare


def component_count(n: int, m: int) -> int:
    """Number of irreducible components of the scheme of n points, m branches."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    return math.comb(n + m - 1, n)


@dataclass(frozen=True)
class CohElem:
    """Basis class of a component: a^i b^j, with a zeta prefix when kind='zeta'."""

    n: int
    k: int
    kind: str  # "plain" or "zeta"
    i: int
    j: int

    def __post_init__(self):
        if not _elem_valid(self.n, self.k, self.kind, self.i, self.j):
            raise ValueError(f"no such basis class: {self}")

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


def poincare_from_basis(n: int, k: int) -> list[Fraction]:
    """Degree census of the explicit basis; must match the product formula."""
    out = [Fraction(0)] * (n + 1)
    for e in coh_basis(n, k):
        out[e.degree // 2] += 1
    return out


class CohClass:
    """Exact linear combination of basis classes at one level n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if e.n != n:
                    raise ValueError(f"class {e} is not at level {n}")
                clean[e] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.n != other.n:
            raise ValueError("classes live at different levels")
        coeffs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c2 = coeffs.get(e, 0) + c
            if c2 == 0:
                coeffs.pop(e, None)
            else:
                coeffs[e] = c2
        return CohClass(self.n, coeffs)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (other * Fraction(-1))

    def __mul__(self, scalar) -> "CohClass":
        c = Fraction(scalar)
        return CohClass(self.n, {e: v * c for e, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CohClass)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

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
    if not (0 <= new_k <= n2) or not _elem_valid(n2, new_k, e.kind, e.i, e.j):
        return None
    return CohElem(n2, new_k, e.kind, e.i, e.j)


def pullback_x1(c: CohClass) -> CohClass:
    """Restriction along adding a point on the first branch: component k -> k."""
    out: dict = {}
    for e, v in c.coeffs.items():
        tgt = _moved(e, e.k)
        if tgt is not None:
            out[tgt] = out.get(tgt, 0) + v
    return CohClass(c.n - 1, out)


def pullback_x2(c: CohClass) -> CohClass:
    """Restriction along adding a point on the second branch: component k -> k-1."""
    out: dict = {}
    for e, v in c.coeffs.items():
        tgt = _moved(e, e.k - 1)
        if tgt is not None:
            out[tgt] = out.get(tgt, 0) + v
    return CohClass(c.n - 1, out)


def kernel_intersection(n: int) -> dict[int, list[CohClass]]:
    """Joint kernel of both pullbacks on each component, below the top degree.

    For each component k of level n, the exact basis of the classes of
    degree < 2n killed by both restriction maps.  The answer is the span of
    the single top zeta class zeta a^(n-k-1) b^(k-1) for 1 <= k <= n-1 and
    zero for the two end components.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    result: dict[int, list[CohClass]] = {}
    for k in range(n + 1):
        source = [e for e in coh_basis(n, k) if e.degree < 2 * n]
        targets = []
        if k <= n - 1:
            targets += [("x1", t) for t in coh_basis(n - 1, k)]
        if k >= 1:
            targets += [("x2", t) for t in coh_basis(n - 1, k - 1)]
        index = {key: r for r, key in enumerate(targets)}
        rows: list[dict] = [{} for _ in targets]
        for col, e in enumerate(source):
            cls = CohClass(n, {e: 1})
            for tag, pb in (("x1", pullback_x1), ("x2", pullback_x2)):
                for t, v in pb(cls).coeffs.items():
                    r = index.get((tag, t))
                    if r is not None:
                        rows[r][col] = rows[r].get(col, 0) + v
        kernel = kernel_basis(rows, len(source))
        result[k] = [
            CohClass(n, {e: c for e, c in zip(source, vec) if c != 0}) for vec in kernel
        ]
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
        comp = sum(int(poincare_from_basis(n, k)[j]) for k in range(n + 1))
        inter = 0
        for k in range(n):
            poly = intersection_poincare(n, k)
            if j < len(poly):
                inter += int(poly[j])
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


@dataclass(frozen=True)
class PavingCell:
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


def paving_census(n: int) -> list[Fraction]:
    """Generating polynomial (in t^2) of cell dimensions at level n."""
    out = [Fraction(0)] * (n + 1)
    for cell in paving_cells(n):
        out[cell.dim] += 1
    return out
