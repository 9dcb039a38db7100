"""The flower approximation framework over a bounded-complete cpo.

A flower is a non-empty convex subset containing its own greatest lower
bound: a union of intervals sharing one foot.  Flowers decompose into
an ALB (the glb) and an AUB that is an antichain of maximal elements,
which is what lets them keep several incomparable upper bounds where an
interval would have to blur them into one.

The lower decomposition space is the exact poset itself; the upper one
is the set of non-empty antichains, ordered by inclusion of their lower
closures, with a side condition forbidding antichains below single
elements.  Antichains are kept as identifier-sorted tuples so equality
and printing are canonical.  The upper space is in bijection with the
non-empty down-closed subsets (an antichain is the max-set of its lower
closure), which realises its complete-lattice structure through plain
set algebra on bitmasks.  The two directions of that bijection are
two tables that fill themselves on a miss, read by `aub_mask` and
`aub_of_mask`; the framework base derives members, closures and exact
approximants from them, and U's binary meet and join read the tables.
"""

from __future__ import annotations

import random

from .errors import PreconditionError
from .framework import MAX_SUBSET_POOL, Approximant, ApproximationFramework
from .posets import FinitePoset, set_id


class _Table(dict):
    """A dict that computes a missing entry with `fill` and stores it; a
    fill that raises stores nothing.  A hit is one C-level subscript."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class FlowerFramework(ApproximationFramework):
    """Flowers over `exact`; requires a bounded-complete cpo.

    `enumerable` says whether the antichain space is materialised for
    exhaustive checks; `build_flower_framework` sets it for posets of at
    most MAX_SUBSET_POOL elements, the bound on every 2**n subset
    enumeration, and larger spaces operate purely on (ALB, AUB) pairs.
    """

    kind = "flower"

    def __init__(self, exact: FinitePoset, *, enumerable: bool):
        cls = exact.classify()
        if not cls.is_bounded_complete:
            subset = exact.pair_without_glb() if cls.has_least else exact.elements
            raise PreconditionError(
                f"flower framework needs a bounded-complete cpo; "
                f"the subset {set_id(subset)} has no greatest lower bound"
            )
        # The two halves of the antichain <-> down-set bijection, filled on
        # demand: an antichain's lower closure, and a mask's maximal elements.
        # They are set first: the base class reads the top AUB through them.
        self._down_cache = _Table(self._lower_closure)  # tuple[str, ...] -> int
        self._antichains = _Table(self._max_set)  # int -> tuple[str, ...]
        super().__init__(exact)
        # L's order is the exact one, called with no frame of the framework's.
        self.alb_leq = exact.leq
        self._enumerable = enumerable
        self._all_aubs: list[tuple[str, ...]] | None = None

    # -- antichain plumbing -------------------------------------------------

    def _lower_closure(self, u: tuple[str, ...]) -> int:
        mask = 0
        for m in u:
            mask |= self.exact.down_mask(m)
        return mask

    def _max_set(self, mask: int) -> tuple[str, ...]:
        """A new antichain is filed under its own down-set too, so each
        down-set meets its antichain once and every mask with that
        antichain returns the same object."""
        u = tuple(sorted(self.exact.set_of(self.exact._max_mask(mask))))
        return self._antichains.setdefault(self._down_cache[u], u)

    def aub_mask(self, u: tuple[str, ...]) -> int:
        """Lower closure of the antichain, as a bitmask."""
        return self._down_cache[u]

    def aub_of_mask(self, mask: int) -> tuple[str, ...]:
        """The antichain of the maximal elements of `mask`."""
        return self._antichains[mask]

    def meet_U(self, u1, u2) -> tuple[str, ...]:
        return self._antichains[self._down_cache[u1] & self._down_cache[u2]]

    def join_U(self, u1, u2) -> tuple[str, ...]:
        return self._antichains[self._down_cache[u1] | self._down_cache[u2]]

    # -- combined order -----------------------------------------------------

    # U is ordered by inclusion of lower closures, and an ALB is below an
    # AUB when it lies in the AUB's lower closure; both read the table.

    def aub_leq(self, u1, u2) -> bool:
        down = self._down_cache
        return down[u1] & ~down[u2] == 0

    def cross_leq(self, l, u) -> bool:
        return self._down_cache[u] >> self.exact.index(l) & 1 == 1

    def least_aub_above(self, l) -> tuple[str, ...]:
        # The least down-set containing the principal one below l.
        return (l,)

    def enumerate_aubs(self) -> list[tuple[str, ...]] | None:
        if not self._enumerable:
            return None
        if self._all_aubs is None:
            # Each antichain is the object filed under its down-set, so the
            # aub_mask of an enumerated AUB hits its cache by identity.
            exact, self._all_aubs = self.exact, []
            for m in range(1, 1 << len(exact)):
                if exact._max_mask(m) == m:
                    down = exact._down_closure(m)
                    u = self._antichains.setdefault(down, tuple(sorted(exact.set_of(m))))
                    self._down_cache[u] = down
                    self._all_aubs.append(u)
        return list(self._all_aubs)

    def sample_aub(self, rng: random.Random) -> tuple[str, ...]:
        k = rng.randint(1, max(1, len(self.exact) // 2))
        picked = rng.sample(self.exact.elements, min(k, len(self.exact)))
        return self.aub_of_mask(self.exact.mask_of(picked))

    # -- approximants ---------------------------------------------------------

    def _recompose(self, l, u) -> Approximant:
        mask = self.exact.up_mask(l) & self.aub_mask(u)
        # The glb of the recomposition is l itself; only the AUB may shrink.
        return Approximant(self, l, self.aub_of_mask(mask))

    def _approximants(self) -> list[Approximant] | None:
        return enumerate_flowers(self) if self._enumerable else None

    def format_approximant(self, x: Approximant) -> str:
        return "⟨" + str(x.alb) + " | {" + ",".join(x.aub) + "}⟩"


def build_flower_framework(exact: FinitePoset) -> FlowerFramework:
    return FlowerFramework(exact, enumerable=len(exact) <= MAX_SUBSET_POOL)


def enumerate_flowers(fw: FlowerFramework) -> list[Approximant]:
    """Every flower of `fw` in the order of its member mask: the
    closures of the non-empty masks that are the members of their own
    closure.  The test reads the order directly, so that checks exercise
    members_mask independently."""
    exact = fw.exact
    if len(exact) > MAX_SUBSET_POOL:
        raise PreconditionError(f"flower enumeration is limited to {MAX_SUBSET_POOL} elements")
    return [fw.closure(m) for m in range(1, 1 << len(exact))
            if exact._up_of(exact._glb_mask(m)) & exact._down_closure(m) == m]
