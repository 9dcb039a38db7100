"""Precision between approximation spaces and transfer of semantics.

One exact space admits many approximation spaces; a finer space is one
that contains the coarser (up to an explicit embedding), preserves
exactness, and admits a monotone collapse map back such that precision
comparisons factor through the collapse.  The collapse sends a fine
approximant to the most precise coarse approximant covering the same
exact elements, which is the coarse space's closure of those members;
embedding is the fine space's closure of a coarse approximant's members.

The pay-off is operator transport in both directions.  Collapsed fine
approximators lose no fixpoints, and approximators induced from coarse
ones compute the same semantics; together these justify starting a
computation cheaply and refining the space only where needed.  The
checkers here verify the definition and the transfer statements on
concrete instances, by enumeration where the spaces allow it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from .engine import (
    Approximator,
    ExactOperator,
    compute_semantics,
    is_prudent,
    is_reliable,
    kripke_kleene,
    stable_revision,
    ultimate_approximator,
)
from .errors import PreconditionError
from .flowers import build_flower_framework
from .framework import (
    Approximant,
    ApproximationFramework,
    Caps,
    CheckResult,
    DEFAULT_CAPS,
    _approximant_pool,
    _draw,
    _probe,
    _result,
    _show,
)
from .intervals import IntervalFramework
from .posets import FinitePoset


@dataclass
class SpacePrecisionWitness:
    """Evidence that `fine` is at least as precise a space as `coarse`.

    `collapse` is the monotone map from fine to coarse approximants and
    `embed` realises the subspace inclusion of coarse into fine.
    """

    coarse: ApproximationFramework
    fine: ApproximationFramework
    collapse: Callable[[Approximant], Approximant]
    embed: Callable[[Approximant], Approximant]


def interval_flower_witness(exact: FinitePoset, coarse: IntervalFramework) -> SpacePrecisionWitness:
    """The canonical witness between intervals and flowers over a
    complete lattice: each map sends an approximant to the closure of
    its members in the other space.

    `coarse` is the interval framework on `exact` that the coarse
    approximators live on; approximants are owned by their framework
    instance.
    """
    fine = build_flower_framework(exact)
    if coarse.exact.elements != exact.elements:
        raise PreconditionError("witness frameworks must share the exact space")
    return SpacePrecisionWitness(
        coarse=coarse,
        fine=fine,
        collapse=_members_closure(fine, coarse, "collapse"),
        embed=_members_closure(coarse, fine, "embedding"),
    )


def _members_closure(source: ApproximationFramework, target: ApproximationFramework,
                     name: str) -> Callable[[Approximant], Approximant]:
    """The map from a `source` approximant to `target`'s closure of its members."""

    def apply(x: Approximant) -> Approximant:
        if x.space is not source:
            raise PreconditionError(f"{name} applied to a foreign approximant")
        return target.closure(source.members_mask(x))

    return apply


def induce_fine(a1: Approximator, w: SpacePrecisionWitness) -> Approximator:
    """Transport a coarse approximator to the fine space by collapsing
    first; precision-monotone because both maps are.  Collapse only adds
    members and embed keeps them, so it still approximates `a1.exact`."""

    def apply(x2: Approximant) -> Approximant:
        return w.embed(a1.apply(w.collapse(x2)))

    return Approximator(w.fine, apply, a1.exact, name=f"fine({a1.name})")


def induce_coarse(a2: Approximator, w: SpacePrecisionWitness) -> Approximator:
    """Transport a fine approximator to the coarse space by embedding
    the argument and collapsing the result; it still approximates
    `a2.exact`."""

    def apply(x1: Approximant) -> Approximant:
        return w.collapse(a2.apply(w.embed(x1)))

    return Approximator(w.coarse, apply, a2.exact, name=f"coarse({a2.name})")


# ---------------------------------------------------------------------------
# verification


def check_space_precision(
    w: SpacePrecisionWitness,
    caps: Caps,
    rng: random.Random,
) -> list[CheckResult]:
    """The definition of "more precise space", clause by clause."""
    coarse_pool, c_exh = _approximant_pool(w.coarse, caps, rng)
    fine_pool, f_exh = _approximant_pool(w.fine, caps, rng)
    results = []

    cx = None
    for x1 in coarse_pool:
        e = w.embed(x1)
        if w.fine.members_mask(e) != w.coarse.members_mask(x1):
            cx = {"coarse": _show(x1), "embedded": _show(e)}
            break
        if w.collapse(e) != x1:
            cx = {"coarse": _show(x1), "roundtrip": _show(w.collapse(e))}
            break
    results.append(_result("space_precision.subspace_embedding", c_exh, cx))

    xs, exhaustive = _probe(coarse_pool, len(coarse_pool) * len(w.coarse.exact),
                            lambda rng: rng.choice(coarse_pool), caps, rng, complete=c_exh)
    cx = None
    for x1 in xs:
        if w.coarse.is_exact(x1) and not w.fine.is_exact(w.embed(x1)):
            cx = {"coarse": _show(x1)}
            break
    results.append(_result("space_precision.exactness_preserved", exhaustive, cx))

    pairs, exhaustive = _probe(itertools.product(fine_pool, fine_pool), len(fine_pool) ** 2,
                               _draw(fine_pool, fine_pool), caps, rng, complete=f_exh)
    cx = None
    for x2, y2 in pairs:
        if w.fine.leq_p(x2, y2) and not w.coarse.leq_p(w.collapse(x2), w.collapse(y2)):
            cx = {"fine1": _show(x2), "fine2": _show(y2)}
            break
    results.append(_result("space_precision.collapse_monotone", exhaustive, cx))

    cross, exhaustive = _probe(itertools.product(coarse_pool, fine_pool),
                               len(coarse_pool) * len(fine_pool), _draw(coarse_pool, fine_pool),
                               caps, rng, complete=c_exh and f_exh)
    cx = None
    for x1, x2 in cross:
        lhs = w.fine.leq_p(w.embed(x1), x2)
        rhs = w.coarse.leq_p(x1, w.collapse(x2))
        if lhs != rhs:
            cx = {"coarse": _show(x1), "fine": _show(x2)}
            break
    results.append(_result("space_precision.comparison_factors_through_collapse", exhaustive, cx))
    return results


def check_fixpoint_preservation(
    w: SpacePrecisionWitness,
    a1: Approximator,
    caps: Caps,
    rng: random.Random,
) -> list[CheckResult]:
    """Inducing a coarse approximator into the fine space keeps its
    fixpoints, stable fixpoints, and both least fixpoints."""
    a2 = induce_fine(a1, w)
    coarse_pool, c_exh = _approximant_pool(w.coarse, caps, rng)
    results = []

    cx = None
    for x1 in coarse_pool:
        e = w.embed(x1)
        if (a1.apply(x1) == x1) != (a2.apply(e) == e):
            cx = {"approximant": _show(x1)}
            break
    results.append(_result("transfer.fixpoints_coincide", c_exh, cx))

    cx = None
    for x1 in coarse_pool:
        if not is_reliable(a1, x1):
            continue
        e = w.embed(x1)
        if not is_reliable(a2, e):
            cx = {"approximant": _show(x1), "lost": "reliability"}
            break
        if (stable_revision(a1, x1) == x1) != (stable_revision(a2, e) == e):
            cx = {"approximant": _show(x1), "lost": "stable-revision fixpoint"}
            break
    results.append(_result("transfer.stable_fixpoints_coincide", c_exh, cx))

    s1, s2 = compute_semantics(a1, ("kk", "wf")), compute_semantics(a2, ("kk", "wf"))
    embedded = w.embed(s1.kk)
    cx = None
    if a2.apply(embedded) != embedded or embedded != s2.kk:
        cx = {"coarse_kk": _show(s1.kk), "fine_kk": _show(s2.kk)}
    results.append(_result("transfer.kk_equal", True, cx))

    cx = None
    if w.embed(s1.wf) != s2.wf:
        cx = {"coarse_wf": _show(s1.wf), "fine_wf": _show(s2.wf)}
    results.append(_result("transfer.wf_equal", True, cx))
    return results


def check_precision_transfer(w: SpacePrecisionWitness, a2: Approximator) -> list[CheckResult]:
    """Collapsing a fine approximator can only lose precision, never
    gain it, across all four semantics."""
    s1, s2 = compute_semantics(induce_coarse(a2, w)), compute_semantics(a2)
    results = []

    cx = None
    if not w.fine.leq_p(w.embed(s1.kk), s2.kk):
        cx = {"coarse_kk": _show(s1.kk), "fine_kk": _show(s2.kk)}
    results.append(_result("transfer.kk_leq", True, cx))

    cx = None
    if not w.fine.leq_p(w.embed(s1.wf), s2.wf):
        cx = {"coarse_wf": _show(s1.wf), "fine_wf": _show(s2.wf)}
    results.append(_result("transfer.wf_leq", True, cx))

    for name in ("supported", "stable"):
        coarse_only = set(getattr(s1, name)) - set(getattr(s2, name))
        cx = {"coarse_only": sorted(coarse_only)} if coarse_only else None
        results.append(_result(f"transfer.{name}_subset", True, cx))
    return results


def check_ultimate_composition(
    w: SpacePrecisionWitness,
    op: ExactOperator,
    caps: Caps = DEFAULT_CAPS,
    *,
    rng: random.Random,
) -> CheckResult:
    """Collapsing the fine ultimate approximator yields the coarse one."""
    coarse_ultimate = ultimate_approximator(w.coarse, op)
    collapsed = induce_coarse(ultimate_approximator(w.fine, op), w)
    coarse_pool, c_exh = _approximant_pool(w.coarse, caps, rng)
    cx = None
    for x1 in coarse_pool:
        if coarse_ultimate.apply(x1) != collapsed.apply(x1):
            cx = {
                "approximant": _show(x1),
                "coarse_ultimate": _show(coarse_ultimate.apply(x1)),
                "collapsed_fine_ultimate": _show(collapsed.apply(x1)),
            }
            break
    return _result("transfer.ultimate_composition", c_exh, cx)


def check_warm_start(
    w: SpacePrecisionWitness,
    a1: Approximator,
    a2: Approximator,
    caps: Caps,
    rng: random.Random,
) -> list[CheckResult]:
    """Moving to a finer space need not restart: the embedded coarse
    Kripke-Kleene fixpoint warm-starts the fine one, and embedded
    reliable-and-prudent approximants stay reliable and prudent.

    Requires the premise that the induced fine version of a1 is at most
    as precise as a2; the premise is verified on the probed pool."""
    a1_fine = induce_fine(a1, w)
    fine_pool, f_exh = _approximant_pool(w.fine, caps, rng)
    results = []

    cx = None
    for x2 in fine_pool:
        if not w.fine.leq_p(a1_fine.apply(x2), a2.apply(x2)):
            cx = {"approximant": _show(x2)}
            break
    results.append(_result("warm_start.premise_a1_below_a2", f_exh, cx))

    kk1 = kripke_kleene(a1)
    kk2 = kripke_kleene(a2)
    embedded = w.embed(kk1)
    cx = None
    if not w.fine.leq_p(embedded, kk2):
        cx = {"embedded_kk": _show(embedded), "fine_kk": _show(kk2)}
    elif (reached := kripke_kleene(a2, start=embedded)) != kk2:
        cx = {"warm_start": _show(embedded), "reached": _show(reached)}
    results.append(_result("warm_start.kk_resumes", True, cx))

    coarse_pool, c_exh = _approximant_pool(w.coarse, caps, rng)
    cx = None
    for x1 in coarse_pool:
        if not (is_reliable(a1, x1) and is_prudent(a1, x1)):
            continue
        e = w.embed(x1)
        if not (is_reliable(a2, e) and is_prudent(a2, e)):
            cx = {"approximant": _show(x1)}
            break
    results.append(_result("warm_start.reliable_prudent_preserved", c_exh, cx))
    return results


def verify_transfer_theorems(
    w: SpacePrecisionWitness,
    a1: Approximator,
    a2: Approximator,
    caps: Caps = DEFAULT_CAPS,
    *,
    rng: random.Random,
) -> list[CheckResult]:
    """Both transfer directions on one instance: fixpoint preservation
    for `a1` and precision transfer for `a2`."""
    return [*check_fixpoint_preservation(w, a1, caps, rng),
            *check_precision_transfer(w, a2)]
