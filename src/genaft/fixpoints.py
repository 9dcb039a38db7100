"""Least fixpoints of monotone operators on finite cpos.

`lfp` climbs from the start it is given along the order it is given, so
the iteration runs both on explicit FinitePoset instances
(`MonotoneOperator(p.leq, f)` from `start=p.least()`) and on virtual
domains (the bound spaces and approximation spaces of the engine) that
are never materialised.  It reads no least element itself, and calls
the mapping and the order with no wrapper per step.  Monotonicity is
checked along the visited steps only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import MonotonicityError, PreconditionError


@dataclass
class MonotoneOperator:
    """A self-map, assumed monotone, and the order `leq(x, y)` its
    iteration climbs, kept in the field `domain`.

    The image must stay inside the domain (not checked up front for
    virtual domains).  `lfp` calls `mapping` directly; `apply` has no
    caller in the package and stays only as the hook the benchmark's
    tracer wraps to count steps.
    """

    domain: Callable
    mapping: Callable

    def apply(self, x):
        return self.mapping(x)


def lfp(op: MonotoneOperator, *, start, step_cap: int):
    """Least fixpoint by iteration from `start`, the domain's least
    element or any element known to lie below the least fixpoint.

    `step_cap` bounds the iterations; the caller derives it from the
    length of a strict chain in the domain.  Raises PreconditionError on
    a `None` start (a domain with no least element), and
    MonotonicityError if an iteration step fails to increase, which
    witnesses that `op` is not monotone (or `start` was not below the
    least fixpoint), or when the cap is reached.
    """
    if start is None:
        raise PreconditionError("domain has no least element")
    mapping, leq, x = op.mapping, op.domain, start
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
