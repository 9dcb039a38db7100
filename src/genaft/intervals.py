"""The consistent-pairs approximation framework over a complete lattice.

Both decomposition spaces are the exact lattice itself, the combined
order is the exact order, and an approximant is a pair (low, high) with
low <= high standing for every element in between.  This is the classic
interval construction; it exists only over complete lattices, which is
exactly the restriction the flower framework lifts.

An AUB's lower closure is its principal down-set, and the least AUB
above a mask is the mask's lub; the framework base derives members,
closures and exact approximants from that map.  U's meet and join are
the lattice's own glb and lub of the pair, which read only the pair's rows.
"""

from __future__ import annotations

import random
from typing import Iterator

from .errors import PreconditionError
from .framework import Approximant, ApproximationFramework
from .posets import FinitePoset, _bits


class IntervalFramework(ApproximationFramework):
    """Intervals over `exact`; requires a complete lattice.

    The error message names what is missing, since rejecting a merely
    bounded-complete space (no greatest element) is the expected failure
    mode that motivates flowers.  The check runs before the base class
    reads the top AUB, which only a complete lattice has.
    """

    kind = "interval"

    def __init__(self, exact: FinitePoset):
        cls = exact.classify()
        if not cls.is_complete_lattice:
            if not cls.has_least:
                missing = "a least element"
            elif not cls.is_bounded_complete:
                a, b = exact.pair_without_glb()
                missing = f"a greatest lower bound for {{{a},{b}}}"
            else:
                missing = "a greatest element"
            raise PreconditionError(
                f"interval framework needs a complete lattice; the exact space lacks {missing}"
            )
        super().__init__(exact)
        # The interval order ignores sides, so all three relations are the
        # lattice's own order, called with no frame of the framework's.
        self.alb_leq = self.aub_leq = self.cross_leq = exact.leq

    # -- L and U: one carrier, the exact lattice ------------------------------

    def bound_leq(self, side1, b1, side2, b2) -> bool:
        return self.exact.leq(b1, b2)

    def aub_mask(self, u: str) -> int:
        return self.exact.down_mask(u)

    def aub_of_mask(self, mask: int) -> str:
        """The lub of `mask`, which exists in a complete lattice."""
        return self.exact.elements[self.exact._lub_mask(mask)]

    def meet_U(self, u1, u2) -> str:
        return self.exact.glb((u1, u2))

    def join_U(self, u1, u2) -> str:
        return self.exact.lub((u1, u2))

    def least_aub_above(self, l) -> str:
        return l

    def enumerate_aubs(self) -> list | None:
        return list(self.exact.elements)

    def sample_aub(self, rng: random.Random) -> str:
        return rng.choice(self.exact.elements)

    # -- approximants -------------------------------------------------------

    def _recompose(self, l, u) -> Approximant:
        return Approximant(self, l, u)

    def _approximants(self) -> Iterator[Approximant]:
        """Every consistent pair, ordered by ALB and then AUB index."""
        elements = self.exact.elements
        for i, l in enumerate(elements):
            for j in _bits(self.exact._up_of(i)):
                yield Approximant(self, l, elements[j])

    def format_approximant(self, x: Approximant) -> str:
        return f"[{x.alb}, {x.aub}]"


def build_interval_framework(exact: FinitePoset) -> IntervalFramework:
    return IntervalFramework(exact)
