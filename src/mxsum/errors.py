"""Exception types shared across the package.

Three failure categories are distinguished because callers (notably the
command-line interface) map them to different exit statuses:

* ``PreconditionError``: the request itself is outside an operation's
  documented domain (wrong sign of an argument, a parameter at a pole,
  an expansion asked for where it is not valid).
* ``NonConvergenceError``: the request was legal but the algorithm did
  not reach its target accuracy within its iteration budget, or the
  underlying series/integral genuinely diverges.
* ``IntegrandError``: an integrand returned NaN or an infinity, or
  overflowed; reported separately so quadrature failures point at the
  integrand rather than the rule.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """Input violates a documented precondition of the operation."""


class NonConvergenceError(ArithmeticError):
    """Iteration budget exhausted before the target accuracy was met."""


class IntegrandError(NonConvergenceError):
    """An integrand evaluated to NaN or an infinity, or overflowed, inside
    a quadrature rule."""
