"""Normal logic programs as exact operators, with independent oracles.

The exact space of a program is the powerset of its atoms under subset
order; the operator is the immediate-consequence map.  Next to it live
the four-valued consequence approximator on intervals and a brute-force
oracle (reduct enumeration plus the alternating fixpoint) that knows
nothing about frameworks: the oracle is the ground truth the framework
pipeline is tested against, so it must stay independent of it.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from ..engine import Approximator, ExactOperator
from ..errors import InputError, SizeCapError
from ..framework import Approximant
from ..intervals import IntervalFramework
from ..posets import FinitePoset, _Powerset, _strings, powerset_lattice, set_id

ATOM_RE = re.compile(r"[A-Za-z0-9_]+\Z")
# 16 is also the limit of _tp's 16-bit array("H") slots: from 17 atoms on, a
# head mask no longer fits a slot.
MAX_LP_ATOMS = 16


@dataclass(frozen=True)
class Rule:
    head: str
    pos: frozenset[str]
    neg: frozenset[str]


@dataclass(frozen=True)
class NormalLogicProgram:
    atoms: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        known = set(self.atoms)
        if len(known) != len(self.atoms):
            raise InputError("duplicate atoms")
        for a in self.atoms:
            if not ATOM_RE.match(a):
                raise InputError(f"bad atom name {a!r}")
        for r in self.rules:
            for a in (r.head, *r.pos, *r.neg):
                if not isinstance(a, str) or a not in known:
                    # The bodies iterate in hash order: name the first in sorted order.
                    a = next(b for b in (r.head, *sorted(r.pos, key=str), *sorted(r.neg, key=str))
                             if not isinstance(b, str) or b not in known)
                    raise InputError(f"rule mentions undeclared atom {a!r}")

    @cached_property
    def _masks(self) -> tuple[tuple[int, int, int], ...]:
        """The rules as (head, positive body, negative body) masks over
        the sorted atoms, compiled on first use and kept in the
        instance: a set's mask is also its index in the program's
        powerset lattice."""
        bit = {a: 1 << i for i, a in enumerate(sorted(self.atoms))}.__getitem__
        return tuple([(bit(r.head), sum(map(bit, r.pos)), sum(map(bit, r.neg)))
                      for r in self.rules])

    @classmethod
    def from_json(cls, data) -> "NormalLogicProgram":
        try:
            atoms = tuple(sorted(_strings(data["atoms"], '"atoms"')))
            rules = tuple(
                Rule(r["head"], frozenset(_strings(r.get("pos", []), '"pos"')),
                     frozenset(_strings(r.get("neg", []), '"neg"')))
                for r in data["rules"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed program JSON: {exc}") from exc
        return cls(atoms, rules)


def parse_program(source: Iterable[str] | str) -> NormalLogicProgram:
    """Tiny rule syntax for tests and docs: "p :- q, not r"."""
    if isinstance(source, str):
        source = [ln for ln in source.splitlines() if ln.strip()]
    rules = []
    seen: set[str] = set()
    for line in source:
        line = line.strip().rstrip(".")
        if ":-" in line:
            head, body = line.split(":-")
        else:
            head, body = line, ""
        pos, neg = set(), set()
        for lit in filter(None, (b.strip() for b in body.split(","))):
            if lit.startswith("not "):
                neg.add(lit[4:].strip())
            else:
                pos.add(lit)
        head = head.strip()
        rules.append(Rule(head, frozenset(pos), frozenset(neg)))
        seen |= {head, *pos, *neg}
    return NormalLogicProgram(tuple(sorted(seen)), tuple(rules))


def _consequence(rules, imask: int) -> int:
    out = 0
    for head, pos, neg in rules:
        if pos & ~imask == 0 and neg & imask == 0:
            out |= head
    return out


def lp_exact_space(program: NormalLogicProgram) -> FinitePoset:
    _check_atom_cap(program)  # the atom cap comes first, as for AEL theories
    return powerset_lattice(program.atoms, "subset")


def _check_atom_cap(program: NormalLogicProgram) -> None:
    if len(program.atoms) > MAX_LP_ATOMS:
        raise SizeCapError(f"{len(program.atoms)} atoms exceed the cap of {MAX_LP_ATOMS}")


def _check_powerset(program: NormalLogicProgram, space: FinitePoset) -> None:
    """Reject a `space` that is not the powerset lattice of the program's
    atoms under subset order: tables and approximants read element index
    i as the set of atoms with mask i.  The atom cap comes first: a
    larger powerset would overflow _tp's slots."""
    _check_atom_cap(program)
    atoms = tuple(sorted(program.atoms))
    if not (isinstance(space, _Powerset) and space._atoms == atoms and not space._superset):
        raise InputError(
            f"the space is not the powerset lattice of the program's atoms {set_id(atoms)}"
        )


def lp_operator(program: NormalLogicProgram, space: FinitePoset) -> ExactOperator:
    """The immediate-consequence operator on the powerset of atoms.

    `space` must be the powerset lattice of the program's atoms under
    subset order, such as `lp_exact_space(program)`; program corpora over
    one atom set share it.
    """
    _check_powerset(program, space)
    return _tp(program._masks, space)


def _tp(rules, space: FinitePoset) -> ExactOperator:
    """The immediate-consequence table of compiled `rules` on their
    powerset lattice `space`.

    A rule fires exactly at the interpretations that hold its positive
    body and miss its negative one: its positive body plus any subset of
    the atoms in neither body.  The table is packed into one int with a
    16-bit slot per interpretation, wide enough for any head mask under
    the atom cap.  A rule's cube starts as its head in the slot of its
    positive body and doubles once per free atom k, each copy shifted
    by the 2**k slots that add atom k; the cubes are OR'ed together and
    the slots unpacked once.
    """
    n = len(space)
    packed = 0
    for head, pos, neg in rules:
        if pos & neg:
            continue
        cube = head << 16 * pos
        free = (n - 1) & ~(pos | neg)
        while free:
            low = free & -free
            cube |= cube << 16 * low
            free ^= low
        packed |= cube
    slots = array("H", packed.to_bytes(2 * n, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return ExactOperator(space, slots.tolist())


def fitting_approximator(program: NormalLogicProgram, fw: IntervalFramework) -> Approximator:
    """The four-valued immediate-consequence approximator on intervals.

    A head is derivable in the lower bound when some rule fires with its
    positive body inside the lower bound and its negative body missing
    from the upper bound; the upper bound is symmetric.  Less precise
    than the ultimate approximator, which makes the pair a good test of
    the approximator-precision transfer results.  On an exact pair it
    is the immediate-consequence operator, which it approximates.
    """
    _check_powerset(program, fw.exact)
    rules, exact = program._masks, fw.exact

    def apply(x: Approximant) -> Approximant:
        low, high = exact.index(x.alb), exact.index(x.aub)
        new_low = new_high = 0
        for head, pos, neg in rules:
            if pos & ~low == 0 and neg & high == 0:
                new_low |= head
            if pos & ~high == 0 and neg & low == 0:
                new_high |= head
        return Approximant(fw, exact.elements[new_low], exact.elements[new_high])

    return Approximator(fw, apply, _tp(rules, exact), name="fitting")


# ---------------------------------------------------------------------------
# the independent oracle


@dataclass(frozen=True)
class LpOracle:
    """Ground-truth semantics computed without any framework machinery."""

    answer_sets: tuple[frozenset[str], ...]
    wf_true: frozenset[str]
    wf_possible: frozenset[str]  # atoms not false in the well-founded model
    supported: tuple[frozenset[str], ...]


def lp_oracle(program: NormalLogicProgram) -> LpOracle:
    """Answer sets by reduct enumeration, well-founded by the alternating
    fixpoint, supported models by direct closure checking."""
    _check_atom_cap(program)
    atoms, rules = sorted(program.atoms), program._masks
    n = len(atoms)

    def unmask(m: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(atoms) if m >> i & 1)

    def reduct_lfp(imask: int) -> int:
        kept = [(h, p) for h, p, neg in rules if neg & imask == 0]
        cur = 0
        while True:
            nxt = 0
            for h, p in kept:
                if p & ~cur == 0:
                    nxt |= h
            if nxt == cur:
                return cur
            cur = nxt

    answers = []
    supported = []
    for imask in range(1 << n):
        if reduct_lfp(imask) == imask:
            answers.append(unmask(imask))
        if _consequence(rules, imask) == imask:
            supported.append(unmask(imask))

    true = 0
    while True:
        nxt = reduct_lfp(reduct_lfp(true))
        if nxt == true:
            break
        true = nxt
    possible = reduct_lfp(true)
    return LpOracle(
        answer_sets=tuple(sorted(answers, key=sorted)),
        wf_true=unmask(true),
        wf_possible=unmask(possible),
        supported=tuple(sorted(supported, key=sorted)),
    )
