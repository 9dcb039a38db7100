"""Auto-epistemic theories as exact operators on belief states.

A belief state is the set of interpretations an introspective agent
deems possible; states are ordered by the superset order, so the least
state (no knowledge) contains every interpretation and the greatest
(inconsistent) state is empty.  The operator of a theory maps a belief
state to the interpretations satisfying every sentence once each
modal atom K(phi) is replaced by its truth value in the current state:
K(phi) holds iff phi holds in every deemed-possible interpretation.

The scope is deliberately modest: propositional sentences whose modal
atoms wrap objective formulas only (no nested K).  That is all the
belief-state semantics needs here, and nesting would drag in a full
possible-world construction.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from ..engine import ExactOperator
from ..errors import InputError, SizeCapError
from ..posets import FinitePoset, _strings, powerset_ids, powerset_lattice

MAX_AEL_ATOMS = 4

_NODE_ARITY = {"atom": 1, "not": 1, "K": 1, "iff": 2}
_NARY = {"and", "or"}


def parse_formula(node) -> tuple:
    """JSON list form to an immutable tree: ["iff", ["atom","q"], ...]."""
    if not isinstance(node, (list, tuple)) or not node:
        raise InputError(f"malformed formula node: {node!r}")
    op, *args = node
    if op == "atom":
        if len(args) != 1 or not isinstance(args[0], str):
            raise InputError(f"malformed atom node: {node!r}")
        return ("atom", args[0])
    if op in _NARY:
        if not args:
            raise InputError(f"{op} needs at least one argument")
        return (op, tuple(parse_formula(a) for a in args))
    if op in _NODE_ARITY and op != "atom":
        if len(args) != _NODE_ARITY[op]:
            raise InputError(f"{op} expects {_NODE_ARITY[op]} arguments")
        return (op, *(parse_formula(a) for a in args))
    raise InputError(f"unknown formula node {op!r}")


def _scan(f: tuple, *, inside_k: bool, atoms: set[str], modal_out: list):
    op = f[0]
    if op == "atom":
        if f[1] not in atoms:
            raise InputError(f"undeclared atom {f[1]!r}")
        return
    if op == "K":
        if inside_k:
            raise InputError("nested K is not supported")
        modal_out.append(f[1])
        _scan(f[1], inside_k=True, atoms=atoms, modal_out=modal_out)
        return
    if op in _NARY:
        for g in f[1]:
            _scan(g, inside_k=inside_k, atoms=atoms, modal_out=modal_out)
        return
    for g in f[1:]:
        _scan(g, inside_k=inside_k, atoms=atoms, modal_out=modal_out)


@dataclass(frozen=True)
class AelTheory:
    atoms: tuple[str, ...]
    sentences: tuple[tuple, ...]

    def __post_init__(self):
        atom_set = set(self.atoms)
        if len(atom_set) != len(self.atoms):
            raise InputError("duplicate atoms")
        for s in self.sentences:
            _scan(s, inside_k=False, atoms=atom_set, modal_out=[])

    @classmethod
    def from_json(cls, data) -> "AelTheory":
        try:
            atoms = tuple(sorted(_strings(data["atoms"], '"atoms"')))
            sentences = tuple(parse_formula(s) for s in data["sentences"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed theory JSON: {exc}") from exc
        return cls(atoms, sentences)

    def modal_subformulas(self) -> list[tuple]:
        out: list = []
        for s in self.sentences:
            _scan(s, inside_k=False, atoms=set(self.atoms), modal_out=out)
        seen, unique = set(), []
        for g in out:
            if g not in seen:
                seen.add(g)
                unique.append(g)
        return unique


def belief_state_space(theory: AelTheory) -> FinitePoset:
    """The lattice of belief states, ordered by superset."""
    interps = powerset_ids(tuple(sorted(theory.atoms)))
    return powerset_lattice(interps, "superset")


def ael_operator(theory: AelTheory) -> ExactOperator:
    """The belief-state revision operator of the theory."""
    if len(theory.atoms) > MAX_AEL_ATOMS:
        raise SizeCapError(f"{len(theory.atoms)} atoms exceed the cap of {MAX_AEL_ATOMS}")
    atoms = tuple(sorted(theory.atoms))
    n_interp = 1 << len(atoms)
    domain = belief_state_space(theory)
    # The lattice's atoms are the sorted interpretation identifiers: the
    # index of a state (a mask over interpretations) moves bit k to the
    # rank of interpretation k's identifier; ranked[r] is the
    # interpretation of rank r.
    interp_ids = powerset_ids(atoms)
    ranked = sorted(range(n_interp), key=interp_ids.__getitem__)

    def index_of(state: int) -> int:
        return sum(1 << r for r, k in enumerate(ranked) if state >> k & 1)

    # Every formula is evaluated once as a mask over the interpretations:
    # interpretation i makes atom k true iff bit k of i is set, so atom k's
    # mask repeats 2^k false bits then 2^k true ones; a modal atom K(g)
    # holds in all interpretations or in none.
    full = (1 << n_interp) - 1
    atom_masks = {
        a: full // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k))
        for k, a in enumerate(atoms)
    }

    def truth(f: tuple, known: dict[tuple, int]) -> int:
        """The interpretations where `f` holds, reading K(g) from `known`."""
        op = f[0]
        if op == "atom":
            return atom_masks[f[1]]
        if op == "K":
            return known[f[1]]
        if op == "not":
            return full ^ truth(f[1], known)
        if op == "iff":
            return full ^ truth(f[1], known) ^ truth(f[2], known)
        masks = (truth(g, known) for g in f[1])
        if op == "and":
            return functools.reduce(operator.and_, masks, full)
        return functools.reduce(operator.or_, masks, 0)

    # K's arguments are objective: _scan rejects a K inside a K.  Bit j of
    # kbits[i] is the truth of the j-th modal atom K(g) in the state of
    # index i: K(g) holds iff every deemed-possible interpretation
    # satisfies g, so the empty (inconsistent) state knows everything, and
    # adding the interpretation of rank r to the states below index 2^r
    # keeps K(g) only where that interpretation satisfies g.
    modal = theory.modal_subformulas()
    gmasks = [truth(g, {}) for g in modal]
    kbits = [(1 << len(modal)) - 1]
    for k in ranked:
        keep = sum(1 << j for j, gmask in enumerate(gmasks) if gmask >> k & 1)
        kbits += [bits & keep for bits in kbits]

    def admitted(bits: int) -> int:
        """The index of the state admitted under the modal bitmask `bits`."""
        known = {g: full if bits >> j & 1 else 0 for j, g in enumerate(modal)}
        out = full
        for s in theory.sentences:
            out &= truth(s, known)
        return index_of(out)

    image = {bits: admitted(bits) for bits in set(kbits)}
    return ExactOperator(domain, list(map(image.__getitem__, kbits)))
