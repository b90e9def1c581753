"""The command-line front end with every layer module loaded.

``import isoprod.cli`` imports each module a verb can reach (``cantor``,
``combiners``, ``continuation``, ``fileio``, ``fixtures``, ``metric``,
``modulus``, ``sampled``, ``text`` and the four ``verbs_*`` handler modules)
and re-exports ``build_parser``, ``dispatch``, ``render`` and ``main`` from
:mod:`isoprod.verbs`.  A caller that dispatches many invocations in one
process, or that wraps library functions by module attribute, finds every
module in ``sys.modules`` after this one import.  ``python -m isoprod`` never
imports this module: it runs :func:`isoprod.verbs.main`, which loads only the
modules its verb runs, because a fresh process compiles every isoprod module
it imports when ``PYTHONDONTWRITEBYTECODE=1`` keeps bytecode caches from being written.
"""

import sys

from . import cantor, combiners, continuation, fileio, fixtures, metric, modulus, sampled, text  # noqa: F401
from . import verbs_cantor, verbs_grid, verbs_metric, verbs_sampled  # noqa: F401
from .verbs import build_parser, dispatch, main, render

__all__ = ["build_parser", "dispatch", "main", "render"]

if __name__ == "__main__":
    sys.exit(main())
