"""Exact model of the operator algebra acting on homology of Hilbert schemes
of points on a nodal curve, with all identities verified in rational
arithmetic.

The package is organized around:

* :mod:`nodehilb.exact` -- sparse polynomials over Q and exact linear algebra;
* :mod:`nodehilb.weyl` -- normal-ordered differential operators, the
  distinguished subalgebra, its relations and membership test;
* :mod:`nodehilb.nodemodule` -- the bigraded quotient module of the node and
  everything computed from it (dimension tables, operator matrices,
  generation and injectivity checks);
* :mod:`nodehilb.series` -- truncated bivariate Poincare series and the
  identities between their independent computations;
* :mod:`nodehilb.geometry` -- component combinatorics, explicit cohomology
  bases with their restriction maps, and the affine paving;
* :mod:`nodehilb.cli` -- the ``nodehilb`` command.
"""

from .exact import Poly
from .geometry import (
    CohElem,
    coh_basis,
    component_count,
    kernel_intersection,
    paving_census,
    pullback_x1,
    pullback_x2,
)
from .nodemodule import (
    NodeClass,
    apply_generator,
    betti_table,
    dim_piece,
    fundamental_class,
    reduce_poly,
)
from .series import Series2, closed_form_pv, mv_pv, paving_pv, series_equal
from .weyl import Generator, WeylOp, commutator, generator_element, subalgebra_membership, verify_relations

__all__ = [
    "Poly",
    "CohElem",
    "coh_basis",
    "component_count",
    "kernel_intersection",
    "paving_census",
    "pullback_x1",
    "pullback_x2",
    "NodeClass",
    "apply_generator",
    "betti_table",
    "dim_piece",
    "fundamental_class",
    "reduce_poly",
    "Series2",
    "closed_form_pv",
    "mv_pv",
    "paving_pv",
    "series_equal",
    "Generator",
    "WeylOp",
    "commutator",
    "generator_element",
    "subalgebra_membership",
    "verify_relations",
]

__version__ = "0.1.0"
