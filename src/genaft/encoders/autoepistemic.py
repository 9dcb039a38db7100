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

from dataclasses import dataclass

from ..engine import ExactOperator
from ..errors import InputError, SizeCapError
from ..posets import FinitePoset, powerset_ids, powerset_lattice

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
            atoms = tuple(sorted(data["atoms"]))
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


def _eval_modal(f: tuple, imask: int, atom_index: dict[str, int], kvalue: dict[tuple, bool]) -> bool:
    """The truth of `f` in interpretation `imask`, reading each modal
    atom K(g) from `kvalue`; an objective formula needs no `kvalue`."""
    op = f[0]
    if op == "K":
        return kvalue[f[1]]
    if op == "atom":
        return bool(imask >> atom_index[f[1]] & 1)
    if op == "not":
        return not _eval_modal(f[1], imask, atom_index, kvalue)
    if op == "and":
        return all(_eval_modal(g, imask, atom_index, kvalue) for g in f[1])
    if op == "or":
        return any(_eval_modal(g, imask, atom_index, kvalue) for g in f[1])
    return _eval_modal(f[1], imask, atom_index, kvalue) == _eval_modal(
        f[2], imask, atom_index, kvalue
    )


def belief_state_space(theory: AelTheory) -> FinitePoset:
    """The lattice of belief states, ordered by superset."""
    interps = powerset_ids(tuple(sorted(theory.atoms)))
    return powerset_lattice(interps, "superset")


def ael_operator(theory: AelTheory) -> ExactOperator:
    """The belief-state revision operator of the theory."""
    if len(theory.atoms) > MAX_AEL_ATOMS:
        raise SizeCapError(f"{len(theory.atoms)} atoms exceed the cap of {MAX_AEL_ATOMS}")
    atoms = tuple(sorted(theory.atoms))
    atom_index = {a: i for i, a in enumerate(atoms)}
    n_interp = 1 << len(atoms)
    domain = belief_state_space(theory)
    # The lattice's atoms are the sorted interpretation identifiers: the
    # index of a state (a mask over interpretations) moves bit k to the
    # rank of interpretation k's identifier.
    interp_ids = powerset_ids(atoms)
    rank = {ident: r for r, ident in enumerate(sorted(interp_ids))}
    index_of = [0]
    for ident in interp_ids:
        index_of += [i | 1 << rank[ident] for i in index_of]

    # K's arguments are objective: _scan rejects a K inside a K.  Bit j
    # of a state's modal bits is the truth of the j-th modal atom there.
    modal = theory.modal_subformulas()
    modal_masks = []
    for j, g in enumerate(modal):
        gmask = 0
        for imask in range(n_interp):
            if _eval_modal(g, imask, atom_index, {}):
                gmask |= 1 << imask
        modal_masks.append((1 << j, gmask))

    # The index of the state admitted under each modal bitmask.
    admitted: dict[int, int] = {}
    table = [0] * len(index_of)
    for state, index in enumerate(index_of):
        # K(g) holds iff every deemed-possible interpretation satisfies g;
        # the empty (inconsistent) state knows everything vacuously.
        kbits = 0
        for bit, gmask in modal_masks:
            if state | gmask == gmask:
                kbits |= bit
        hit = admitted.get(kbits)
        if hit is None:
            kvalue = {g: bool(kbits >> j & 1) for j, g in enumerate(modal)}
            out = 0
            for imask in range(n_interp):
                if all(_eval_modal(s, imask, atom_index, kvalue) for s in theory.sentences):
                    out |= 1 << imask
            hit = admitted[kbits] = index_of[out]
        table[index] = hit
    return ExactOperator(domain, table)
