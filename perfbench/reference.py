"""Engine-independent answers for checking what genaft computes.

Exact operators are evaluated here from the definitions of each
formalism, so supported models come straight from the exact table, and
precision between approximants is decided on element identifiers with
orders built here.  Nothing in this module imports genaft: a check
that passes does not depend on the code it checks.

Identifiers follow genaft's canonical output: a set of names is
"{a,b}" (sorted), a tuple is "(u|v)", a belief state is the set of the
identifiers of its interpretations.
"""

from __future__ import annotations

import itertools
import re


class CheckFailed(Exception):
    """An answer disagreed with its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def set_ident(members) -> str:
    return "{" + ",".join(sorted(members)) + "}"


def _members(ident: str) -> frozenset[str]:
    inner = ident[1:-1]
    return frozenset(inner.split(",")) if inner else frozenset()


_INNER_SET = re.compile(r"\{[^{}]*\}")


def _belief_members(ident: str) -> frozenset[str]:
    return frozenset(_INNER_SET.findall(ident[1:-1]))


# -- exact orders ----------------------------------------------------------------


class SubsetOrder:
    """Interpretations of a logic program, ordered by inclusion."""

    def leq(self, x: str, y: str) -> bool:
        return _members(x) <= _members(y)


class BeliefOrder:
    """Belief states, ordered by reverse inclusion: fewer possible
    interpretations is more knowledge."""

    def leq(self, x: str, y: str) -> bool:
        return _belief_members(x) >= _belief_members(y)


class ValueOrder:
    """A finite poset given by its Hasse pairs, closed here."""

    def __init__(self, poset: dict):
        self.elements = list(poset["elements"])
        below = {x: {x} for x in self.elements}
        changed = True
        while changed:
            changed = False
            for lo, hi in poset["hasse"]:
                extra = below[lo] - below[hi]
                if extra:
                    below[hi] |= extra
                    changed = True
        self.below = below

    def leq(self, x: str, y: str) -> bool:
        return x in self.below[y]

    def glb(self, values) -> str:
        common = set(self.elements)
        for v in values:
            common &= self.below[v]
        tops = [g for g in common if self.below[g] >= common]
        expect(len(tops) == 1, f"no glb of {sorted(set(values))}")
        return tops[0]


class ProductOrder:
    """Assignments "(u|v|...)" of a wADF, ordered pointwise."""

    def __init__(self, values: ValueOrder):
        self.values = values

    def leq(self, x: str, y: str) -> bool:
        xs, ys = x[1:-1].split("|"), y[1:-1].split("|")
        return all(self.values.leq(a, b) for a, b in zip(xs, ys))


def precision_leq(order, x: dict, y: dict) -> bool:
    """x is at most as precise as y.

    Intervals carry one AUB element; flowers carry an antichain, and the
    AUB order is inclusion of lower closures."""
    if not order.leq(x["alb"], y["alb"]):
        return False
    if isinstance(x["aub"], str):
        return order.leq(y["aub"], x["aub"])
    return all(any(order.leq(u, v) for v in x["aub"]) for u in y["aub"])


# -- exact operators, evaluated from the definitions ---------------------------------


def fixpoints(table: dict[str, str]) -> list[str]:
    return sorted(x for x, fx in table.items() if fx == x)


def lp_table(program: dict) -> dict[str, str]:
    """Immediate consequence on every interpretation."""
    atoms = program["atoms"]
    rules = [(r["head"], set(r["pos"]), set(r["neg"])) for r in program["rules"]]
    table = {}
    for k in range(len(atoms) + 1):
        for chosen in itertools.combinations(atoms, k):
            interp = set(chosen)
            heads = {h for h, pos, neg in rules if pos <= interp and not neg & interp}
            table[set_ident(interp)] = set_ident(heads)
    return table


def _holds(f: list, interp: frozenset[str], state: list[frozenset[str]]) -> bool:
    op = f[0]
    if op == "atom":
        return f[1] in interp
    if op == "K":
        return all(_holds(f[1], j, state) for j in state)
    if op == "not":
        return not _holds(f[1], interp, state)
    if op == "and":
        return all(_holds(g, interp, state) for g in f[1:])
    if op == "or":
        return any(_holds(g, interp, state) for g in f[1:])
    if op == "iff":
        return _holds(f[1], interp, state) == _holds(f[2], interp, state)
    raise CheckFailed(f"unknown formula node {op!r}")


def ael_table(theory: dict) -> dict[str, str]:
    """Belief revision: a state maps to the interpretations satisfying
    the theory when K reads off the state."""
    atoms = sorted(theory["atoms"])
    interps = [frozenset(c) for k in range(len(atoms) + 1) for c in itertools.combinations(atoms, k)]
    table = {}
    for k in range(len(interps) + 1):
        for state in itertools.combinations(interps, k):
            admitted = [i for i in interps if all(_holds(s, i, list(state)) for s in theory["sentences"])]
            table[set_ident(set_ident(i) for i in state)] = set_ident(set_ident(i) for i in admitted)
    return table


def wadf_table(wadf: dict, values: ValueOrder) -> dict[str, str]:
    """One revision step of every argument, on every assignment."""
    args = wadf["arguments"]
    index = {a: i for i, a in enumerate(args)}

    def evaluate(expr: list, assignment: tuple[str, ...]) -> str:
        op = expr[0]
        if op == "const":
            return expr[1]
        if op == "parent":
            return assignment[index[expr[1]]]
        if op == "glb":
            return values.glb([evaluate(e, assignment) for e in expr[1:]])
        if op == "table":
            key = [assignment[index[p]] for p in expr[1]]
            return next(out for row, out in expr[2] if row == key)
        raise CheckFailed(f"unsupported acceptance node {op!r}")

    table = {}
    for assignment in itertools.product(values.elements, repeat=len(args)):
        revised = [evaluate(wadf["acceptance"][a], assignment) for a in args]
        table["(" + "|".join(assignment) + ")"] = "(" + "|".join(revised) + ")"
    return table


# -- checks on one solved instance ------------------------------------------------------


def check_semantics(sem: dict, order, supported: list[str]) -> None:
    """Every solved instance: supported models are the fixpoints of the
    exact table, stable models are supported, KK is below WF."""
    expect(sem["supported"] == supported, f"supported {sem['supported']} != table fixpoints {supported}")
    expect(set(sem["stable"]) <= set(sem["supported"]), "a stable model is not supported")
    expect(precision_leq(order, sem["kk"], sem["wf"]), "KK is not below WF in precision")


def check_lp(sem: dict, approximator: str, oracle: dict) -> None:
    """Logic programs against the reduct-and-alternating-fixpoint oracle.

    The Fitting approximator reproduces the oracle exactly.  The
    ultimate approximator is more precise: its stable models include the
    answer sets and its WF refines the oracle's, on intervals and flowers
    alike."""
    order = SubsetOrder()
    check_semantics(sem, order, oracle["supported"])
    wf = {"alb": oracle["wf_true"], "aub": oracle["wf_possible"]}
    if approximator == "fitting":
        expect(sem["stable"] == oracle["answer_sets"], "stable models differ from the answer sets")
        expect(
            (sem["wf"]["alb"], sem["wf"]["aub"]) == (wf["alb"], wf["aub"]),
            "WF differs from the alternating fixpoint",
        )
        return
    expect(set(oracle["answer_sets"]) <= set(sem["stable"]), "an answer set is not stable")
    if not isinstance(sem["wf"]["aub"], str):
        wf = {"alb": wf["alb"], "aub": [wf["aub"]]}
    expect(precision_leq(order, wf, sem["wf"]), "WF does not refine the alternating fixpoint")
