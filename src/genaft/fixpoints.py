"""Monotone inductions and least fixpoints on finite cpos.

The engine works against a minimal ordered-domain protocol: anything
with `leq(x, y)` and `least()` qualifies, so it runs both on explicit
FinitePoset instances and on virtual domains (sub-cpos, antichain
lattices, approximation spaces) that are never materialised.

Monotonicity is verified lazily along the visited pairs only; the
exhaustive quadratic check is opt-in via `verify_monotone`, since it
needs an enumerable domain and is unnecessary for the trusted built-in
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, runtime_checkable

from .errors import (
    InvalidRefinementError,
    MonotonicityError,
    PreconditionError,
)

DEFAULT_STEP_CAP = 1_000_000


@runtime_checkable
class OrderedDomain(Protocol):
    def leq(self, x, y) -> bool: ...

    def least(self): ...


@dataclass
class MonotoneOperator:
    """A self-map on an ordered domain, assumed monotone.

    The image must stay inside the domain (not checked up front for
    virtual domains).
    """

    domain: OrderedDomain
    mapping: Callable

    def apply(self, x):
        return self.mapping(x)


@dataclass(frozen=True)
class InductionTrace:
    """An increasing sequence x0, x1, ..., produced by an induction."""

    steps: tuple

    @property
    def limit(self):
        return self.steps[-1]

    def __len__(self) -> int:
        return len(self.steps)


def is_prefixpoint(op: MonotoneOperator, x) -> bool:
    return op.domain.leq(op.apply(x), x)


def is_postfixpoint(op: MonotoneOperator, x) -> bool:
    return op.domain.leq(x, op.apply(x))


def lfp(op: MonotoneOperator, *, start=None, step_cap: int = DEFAULT_STEP_CAP):
    """Least fixpoint by iteration from the domain's least element.

    Raises MonotonicityError if an iteration step fails to increase,
    which witnesses that `op` is not monotone (or `start` was not below
    the least fixpoint).
    """
    x = op.domain.least() if start is None else start
    if x is None:
        raise PreconditionError("domain has no least element")
    for _ in range(step_cap):
        y = op.apply(x)
        if y == x:
            return x
        if not op.domain.leq(x, y):
            raise MonotonicityError(
                f"iteration step decreased: map({x!r}) = {y!r} is not above {x!r}"
            )
        x = y
    raise MonotonicityError(f"no fixpoint within {step_cap} steps")


def run_monotone_induction(
    op: MonotoneOperator,
    strategy: Callable | None = None,
    *,
    start=None,
    step_cap: int = DEFAULT_STEP_CAP,
) -> InductionTrace:
    """Drive a monotone induction to a terminal trace.

    `strategy(current, image)` picks the next element anywhere between
    the current element and its image; the default takes the image
    itself.  A strategy that leaves the sandwich, or stalls below a
    non-terminal element, raises InvalidRefinementError: the run must
    end terminal.
    """
    x = op.domain.least() if start is None else start
    if x is None:
        raise PreconditionError("domain has no least element")
    steps = [x]
    for _ in range(step_cap):
        fx = op.apply(x)
        if op.domain.leq(fx, x):
            return InductionTrace(tuple(steps))
        nxt = fx if strategy is None else strategy(x, fx)
        if not (op.domain.leq(x, nxt) and op.domain.leq(nxt, fx)):
            raise InvalidRefinementError(
                f"strategy left the sandwich {x!r} <= next <= map({x!r})"
            )
        if nxt == x:
            raise InvalidRefinementError(
                f"strategy stalled at non-terminal element {x!r}"
            )
        x = nxt
        steps.append(x)
    raise MonotonicityError(f"induction not terminal within {step_cap} steps")


def random_strategy(domain_elements: Iterable, domain: OrderedDomain, rng):
    """A seeded strategy choosing uniformly among the valid next steps.

    Needs an enumerable domain; intended for confluence tests on small
    posets.
    """
    pool = list(domain_elements)

    def pick(x, fx):
        candidates = [
            y for y in pool if y != x and domain.leq(x, y) and domain.leq(y, fx)
        ]
        if not candidates:
            return fx
        return rng.choice(candidates)

    return pick


def verify_monotone(op: MonotoneOperator, elements: Iterable) -> tuple[str, str] | None:
    """Exhaustive monotonicity check; returns a violating pair or None."""
    pool = list(elements)
    for x in pool:
        fx = op.apply(x)
        for y in pool:
            if op.domain.leq(x, y) and not op.domain.leq(fx, op.apply(y)):
                return (x, y)
    return None
