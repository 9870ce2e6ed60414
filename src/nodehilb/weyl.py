"""Normal-ordered arithmetic in the Weyl algebra of polynomial differential operators.

The Weyl algebra on 2m coordinates x1..xm, y1..ym is generated by the
multiplication operators x_i, y_i and the derivations dx_i = d/dx_i,
dy_i = d/dy_i, subject to [dx_i, x_i] = [dy_i, y_i] = 1 with all other
pairs commuting.  Elements are stored in normal form: every word is a sum
of monomials x^a y^b dx^g dy^d (all position operators before all
derivations), keyed like a polynomial in 4m commuting exponents by one flat
tuple a + b + g + d.  ``WeylOp`` takes its keys, sums, scalar multiples,
powers, equality and text form from ``exact.Combination``: sums take
operators only, and equality is by content, within the class.  It supplies
only its variable prefixes and the product of two normal monomials, which
is the closed form of the rewriting rule du*u -> u*du + 1,

    dx^g x^a = sum_j C(g, j) * a!/(a-j)! * x^(a-j) dx^(g-j),

applied independently per variable, which is exactly the terminating,
confluent normal form of repeated single-step rewriting.

On top of the Weyl algebra this module realizes the subalgebra generated by

    x_1..x_m,  dy_1..dy_m,  mu_plus = y_1 + ... + y_m,  mu_minus = dx_1 + ... + dx_m,

whose defining commutators are [dy_i, mu_plus] = [mu_minus, x_i] = 1 with
every other pair of generators commuting.  ``generators(m)`` is the one
constructor of the generators.  ``defining_relations`` states the relations
once, for ``verify_relations`` and ``nodemodule.relation_matrix_checks``.
It still lists [x_i,x_j] and [d_i,d_j] with j <= i, which cannot fail; when
it keeps only j > i, ``relation_matrix_checks`` drops its settling branch.

The words

    x^a * mu_plus^s * dy^d * mu_minus^r

span this subalgebra, have pairwise disjoint normal-form supports, and are
homogeneous for the total-degree (Bernstein) filtration.  Each word has
coefficient 1 at its own normal monomial x^a y1^s dx1^r dy^d, so membership
of an operator in the subalgebra is decided by reading each coefficient off
that monomial and comparing the reconstruction; a mismatch is conclusive.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .exact import Combination, Poly, add_into

if TYPE_CHECKING:
    from fractions import Fraction

GENERATOR_BIDEGREES = {"x": (1, 0), "d": (-1, -2), "mu+": (1, 2), "mu-": (-1, 0)}


class Generator(NamedTuple):
    """One of the distinguished operators: x_i, d_i, mu_plus or mu_minus.

    ``kind`` is "x", "d", "mu+" or "mu-"; ``index`` is 1-based and None for
    the two mu operators.  :func:`generators` is their one constructor.
    """

    kind: str
    index: int | None = None

    @property
    def bidegree(self) -> tuple[int, int]:
        return GENERATOR_BIDEGREES[self.kind]

    def __str__(self):
        return self.kind if self.index is None else f"{self.kind}{self.index}"


def generators(m: int) -> list[Generator]:
    """All 2m + 2 distinguished generators at ambient size m."""
    gens = [Generator("x", i) for i in range(1, m + 1)]
    gens += [Generator("d", i) for i in range(1, m + 1)]
    gens += [Generator("mu+"), Generator("mu-")]
    return gens


class WeylOp(Combination):
    """Element of the Weyl algebra in normal form.

    ``coeffs`` maps the flat exponent tuple of x^a y^b dx^g dy^d -- the m
    exponents of x, then of y, of dx and of dy -- to a nonzero exact
    coefficient (``int`` where integral, else ``Fraction``).  Variable i
    (0 <= i < 2m) of ``Poly`` meets its derivation in slot 2m + i.  Sums,
    scalar multiples, powers and equality are those of
    :class:`exact.Combination`: sums take another ``WeylOp`` only, and
    equality is by content.  The product of two normal monomials is the
    closed form :func:`_mono_mul`.
    """

    __slots__ = ()
    PREFIXES = ("x", "y", "dx", "dy")

    def _mono_mul(self, k1, k2):
        # the module attribute is looked up on each call, so that a patched
        # _mono_mul reaches every product
        return _mono_mul(k1, k2, self.m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, m: int, i: int) -> "WeylOp":
        return cls._single(m, 0, i)

    @classmethod
    def y(cls, m: int, i: int) -> "WeylOp":
        return cls._single(m, 1, i)

    @classmethod
    def dx(cls, m: int, i: int) -> "WeylOp":
        return cls._single(m, 2, i)

    @classmethod
    def dy(cls, m: int, i: int) -> "WeylOp":
        return cls._single(m, 3, i)

    # -- module action -----------------------------------------------------

    def act(self, p: Poly) -> Poly:
        """Standard action on Q[x, y]: x, y multiply and dx, dy differentiate."""
        if p.m != self.m:
            raise ValueError(f"mismatched ambient variable count: {self.m} vs {p.m}")
        m, n = self.m, 2 * self.m
        out = Poly.zero(m)
        for k, c in self.coeffs.items():
            q = p
            for i, e in enumerate(k[n:]):
                for _ in range(e):
                    q = q.derivative(i)
            if q.is_zero():
                continue
            out = out + Poly.monomial(m, k[:n], c) * q
        return out


def _mono_mul(k1, k2, m):
    """Normal-form product of two normal monomials, as (key, coeff) pairs.

    Derivation exponent g = k1[2m + i] meets position exponent a = k2[i];
    each choice of j <= min(g, a) for the 2m pairs lowers both by j, with
    coefficient C(g, j) * a!/(a-j)!.  Only the slots where g and a are both
    nonzero can take j >= 1, so only those are enumerated.
    """
    n = 2 * m
    base = [p + q for p, q in zip(k1, k2)]
    meet = [(i, g, a) for i, (g, a) in enumerate(zip(k1[n:], k2[:n])) if g and a]
    for js in itertools.product(*(range(min(g, a) + 1) for _, g, a in meet)):
        key = base.copy()
        c = 1
        for (i, g, a), j in zip(meet, js):
            key[i] -= j
            key[n + i] -= j
            c *= math.comb(g, j) * math.perm(a, j)
        yield tuple(key), c


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return a * b - b * a


def generator_element(g: Generator, m: int) -> WeylOp:
    """The distinguished generator as a Weyl algebra element."""
    if g.kind == "x":
        return WeylOp.x(m, g.index)
    if g.kind == "d":
        return WeylOp.dy(m, g.index)
    if g.kind == "mu+":
        out = WeylOp.zero(m)
        for i in range(1, m + 1):
            out = out + WeylOp.y(m, i)
        return out
    out = WeylOp.zero(m)
    for i in range(1, m + 1):
        out = out + WeylOp.dx(m, i)
    return out


class Relation(NamedTuple):
    """One defining relation of the subalgebra: [a, b] is the identity or zero."""

    family: str
    i: int | None
    j: int | None
    a: Generator
    b: Generator
    ident: bool  # [a, b] = 1 rather than 0


def defining_relations(m: int) -> list[Relation]:
    """The defining relations at ambient size m, each once, family by family.

    [d_i,mu+] = [mu-,x_i] = 1 first, then [x_i,x_j] = [d_i,d_j] = [d_i,x_j]
    = 0 over ordered pairs, then [x_i,mu+] = [d_i,mu-] = [mu+,mu-] = 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    gens = generators(m)
    x, d = dict(enumerate(gens[:m], 1)), dict(enumerate(gens[m : 2 * m], 1))
    mup, mum = gens[2 * m :]
    idx = range(1, m + 1)
    table = [Relation("[d_i,mu+]=1", i, None, d[i], mup, True) for i in idx]
    table += [Relation("[mu-,x_i]=1", i, None, mum, x[i], True) for i in idx]
    for family, p, q in (("[x_i,x_j]=0", x, x), ("[d_i,d_j]=0", d, d), ("[d_i,x_j]=0", d, x)):
        table += [Relation(family, i, j, p[i], q[j], False) for i in idx for j in idx]
    table += [Relation("[x_i,mu+]=0", i, None, x[i], mup, False) for i in idx]
    table += [Relation("[d_i,mu-]=0", i, None, d[i], mum, False) for i in idx]
    table.append(Relation("[mu+,mu-]=0", None, None, mup, mum, False))
    return table


class RelationCheck(NamedTuple):
    family: str
    i: int | None
    j: int | None
    ok: bool
    got: str


def verify_relations(m: int) -> list[RelationCheck]:
    """Evaluate each of ``defining_relations(m)`` in the Weyl algebra."""
    relations = defining_relations(m)  # raises for m < 1
    element = {g: generator_element(g, m) for g in generators(m)}
    expected = (WeylOp.zero(m), WeylOp.one(m))  # indexed by ident
    checks = []
    for r in relations:
        got = commutator(element[r.a], element[r.b])
        checks.append(RelationCheck(r.family, r.i, r.j, got == expected[r.ident], str(got)))
    return checks


# -- the spanned subalgebra and membership ------------------------------------


class SubalgebraWord(NamedTuple):
    """Spanning word x^alpha * mu_plus^s * dy^delta * mu_minus^r.

    Such a word is already normal-ordered, so its Weyl expansion carries the
    multinomial coefficients of (y1+..+ym)^s and (dx1+..+dxm)^r and nothing
    else; all its normal monomials share the total degree
    |alpha| + s + |delta| + r.
    """

    alpha: tuple
    s: int
    delta: tuple
    r: int

    def to_weyl(self, m: int) -> WeylOp:
        if len(self.alpha) != m or len(self.delta) != m:
            raise ValueError(f"word has wrong ambient size for m={m}")
        mup, mum = (generator_element(g, m) for g in generators(m)[2 * m :])
        # multiply in normal order: x^alpha * mu+^s * dy^delta * mu-^r
        zeros = (0,) * (3 * m)
        out = WeylOp.monomial(m, (*self.alpha, *zeros)) * mup**self.s
        out = out * WeylOp.monomial(m, (*zeros, *self.delta))
        return out * mum**self.r


def subalgebra_membership(w: WeylOp) -> dict[SubalgebraWord, int | Fraction] | None:
    """Expand w over the spanning words, or return None if w is outside.

    Distinct words have disjoint normal-form supports, so the only words
    that can appear in an expansion of w are those whose support meets the
    support of w; each such word is read off a normal monomial a + b + g + d
    of w as (a, |b|, d, |g|).  A word has coefficient 1 at its normal monomial
    x^alpha y1^s dx1^r dy^delta, which no other word touches, so its
    coefficient in any expansion is the coefficient of w there.  The
    expansion is accepted only if it rebuilds w exactly; otherwise no
    expansion exists at any degree.
    """
    m = w.m
    rest = (0,) * (m - 1)
    expansion = {}
    rebuilt: dict = {}
    y, dx, dy = m, 2 * m, 3 * m  # where the y, dx and dy exponents start
    for wd in {SubalgebraWord(k[:y], sum(k[y:dx]), k[dy:], sum(k[dx:dy])) for k in w.coeffs}:
        c = w.coeffs.get((*wd.alpha, wd.s, *rest, wd.r, *rest, *wd.delta), 0)
        if c:
            expansion[wd] = c
            add_into(rebuilt, wd.to_weyl(m).coeffs.items(), c)
    return expansion if rebuilt == w.coeffs else None
