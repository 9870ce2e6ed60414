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

The five library modules load on first use.  Importing the package registers
each of them in ``sys.modules`` through ``importlib.util.LazyLoader``, and a
module's code runs when one of its attributes is first read.  Each command
runs in a fresh interpreter, usually without bytecode caches, so compiling a
module it never calls would be most of a short command's start-up.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    """Put submodule ``name`` in ``sys.modules`` and on the package, unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module  # so `from . import name` finds it without importing
    spec.loader.exec_module(module)


for _name in ("exact", "geometry", "nodemodule", "series", "weyl"):
    _register_lazily(_name)
del _name

