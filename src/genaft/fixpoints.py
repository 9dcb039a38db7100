"""Least fixpoints of monotone operators on finite cpos.

The domain is anything with `leq(x, y)` and `least()`, so the iteration
runs both on explicit FinitePoset instances and on virtual domains (the
bound spaces and approximation spaces of the engine) that are never
materialised.  `lfp` calls the mapping and order it is given, with no
wrapper per step.  Monotonicity is checked along the visited steps only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import MonotonicityError, PreconditionError


@dataclass
class MonotoneOperator:
    """A self-map on an ordered domain, assumed monotone.

    The image must stay inside the domain (not checked up front for
    virtual domains).
    """

    domain: object
    mapping: Callable

    def apply(self, x):
        return self.mapping(x)


def lfp(op: MonotoneOperator, *, start=None, step_cap: int):
    """Least fixpoint by iteration from the domain's least element.

    `step_cap` bounds the iterations; the caller derives it from the
    length of a strict chain in the domain.  Raises MonotonicityError if
    an iteration step fails to increase, which witnesses that `op` is
    not monotone (or `start` was not below the least fixpoint), or when
    the cap is reached.
    """
    mapping, leq = op.mapping, op.domain.leq
    x = op.domain.least() if start is None else start
    if x is None:
        raise PreconditionError("domain has no least element")
    for _ in range(step_cap):
        y = mapping(x)
        if y == x:
            return x
        if not leq(x, y):
            raise MonotonicityError(
                f"iteration step decreased: map({x!r}) = {y!r} is not above {x!r}"
            )
        x = y
    raise MonotonicityError(f"no fixpoint within {step_cap} steps")
