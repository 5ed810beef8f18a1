"""Long-run average optimal control of finite deterministic systems.

The value of interest is the best achievable long-run average running
cost from a given start state, kept start-dependent throughout: no
ergodicity is assumed.  The package computes it several independent ways
and cross-checks them: finite-horizon and discounted dynamic programming,
a measure linear program over stationary distributions reachable from the
start, solved with an in-package simplex method, and minimum mean cycle
analysis.  One solve of the measure program also yields its certificate
dual from the row duals; that certificate is checked independently for
feasibility and against the cycle value.  The minimum mean cycle
recursion yields a primal point and a certificate of its own, whose
zero duality gap proves both optimal without a program.

The public names are those of each layer module's `__all__`, re-exported
here.
"""

from . import builtin, dp, measures, optimality, problem, programs, simplex
from .problem import *  # noqa: F401,F403
from .builtin import *  # noqa: F401,F403
from .dp import *  # noqa: F401,F403
from .simplex import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .programs import *  # noqa: F401,F403
from .optimality import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for layer in (problem, builtin, dp, simplex, measures, programs, optimality)
    for name in layer.__all__
]
