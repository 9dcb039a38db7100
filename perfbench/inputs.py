"""Seeded input generators for the benchmark workloads.

Every generator returns plain JSON data and none imports genaft, so a
refactor of the library or of its test helpers cannot change what a
workload runs.  The same seed gives the same inputs; `digest`
fingerprints them so that a run records exactly what it measured.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random

DATA = pathlib.Path(__file__).resolve().parent / "data"

# corpus_sweep: a draw from the bounded grammar plus random 5-atom programs.
GRAMMAR_DRAW = 1590
RANDOM_PROGRAMS = 500

# large_solve: (atoms, programs, commands) for the random logic programs.
LP_PLAN = (
    (8, 2, ("solve-interval", "solve-flower", "compare")),
    (9, 1, ("solve-interval", "solve-flower", "compare")),
)
AEL_THEORIES = 3
WADF_ARGUMENTS = 3

# axiom_check
CPO_SIZES = (3, 4, 5, 6, 7)
CPOS_PER_SIZE = 24
# The cpo shapes are one fixed draw, which a workload seed renames and
# reorders; the mid-size checks draw their probes from fixed seeds.
SHAPES_SEED = 0
MID_SEED = 0
MID_CHECKERS = (
    "preamble",
    "composition_poset",
    "chain_ilp",
    "weak_ilp",
    "abstract_ilp",
    "glb_property",
    "approximates_relation",
)
MUTANTS = ("swapped_recompose", "no_side_condition")
TRANSFER_PROGRAMS = 30
INDUCTION_PROGRAMS = 4
INDUCTION_BATCHES = 6  # per approximator
INDUCTION_BATCH = 20  # inductions per instance

VEE = {"elements": ["bot", "a", "b"], "hasse": [["bot", "a"], ["bot", "b"]]}


def digest(inputs) -> str:
    """Short sha256 of the canonical JSON form of `inputs`."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def worked(name: str) -> dict:
    """One of the worked instance files kept beside this module."""
    return json.loads((DATA / f"{name}.json").read_text())


# -- logic programs ------------------------------------------------------------


def _rule(head: str, pos, neg) -> dict:
    return {"head": head, "pos": sorted(pos), "neg": sorted(neg)}


def _bodies(atoms: tuple[str, ...], max_literals: int):
    """All bodies with at most `max_literals` signed, distinct atoms."""
    yield ((), ())
    for size in range(1, max_literals + 1):
        for picked in itertools.combinations(atoms, size):
            for signs in itertools.product((False, True), repeat=size):
                pos = tuple(a for a, s in zip(picked, signs) if not s)
                neg = tuple(a for a, s in zip(picked, signs) if s)
                yield (pos, neg)


def single_rule_programs(atoms: tuple[str, ...]):
    """Every program giving each atom at most one rule of at most two literals."""
    options = [None, *_bodies(atoms, 2)]
    for combo in itertools.product(options, repeat=len(atoms)):
        rules = [_rule(h, *body) for h, body in zip(atoms, combo) if body is not None]
        yield {"atoms": list(atoms), "rules": rules}


def grammar_programs() -> list[dict]:
    """The bounded rule grammar, 8,360 programs: single-rule programs over
    one to three atoms, plus programs giving each of two atoms up to two
    rules of at most one literal (where the even and odd loops live)."""
    out = []
    for atoms in (("p",), ("p", "q"), ("p", "q", "r")):
        out.extend(single_rule_programs(atoms))
    atoms = ("p", "q")
    bodies = list(_bodies(atoms, 1))
    per_atom = [(), *((b,) for b in bodies), *itertools.combinations(bodies, 2)]
    for combo in itertools.product(per_atom, repeat=len(atoms)):
        rules = [_rule(h, *body) for h, chosen in zip(atoms, combo) for body in chosen]
        out.append({"atoms": list(atoms), "rules": rules})
    return out


def random_program(atoms: tuple[str, ...], rng: random.Random) -> dict:
    """Up to two rules per atom, bodies of up to three literals."""
    rules: list[dict] = []
    for head in atoms:
        for _ in range(rng.randint(0, 2)):
            picked = rng.sample(atoms, rng.randint(0, min(3, len(atoms))))
            pos = [a for a in picked if rng.random() < 0.5]
            rule = _rule(head, pos, set(picked) - set(pos))
            if rule not in rules:
                rules.append(rule)
    return {"atoms": sorted(atoms), "rules": rules}


# -- auto-epistemic theories and wADFs -------------------------------------------


def _formula(atoms: list[str], rng: random.Random, depth: int, modal: bool) -> list:
    """A random formula; K is never nested."""
    if depth == 0 or rng.random() < 0.3:
        if modal and rng.random() < 0.5:
            return ["K", _formula(atoms, rng, 1, False)]
        return ["atom", rng.choice(atoms)]
    op = rng.choice(("not", "and", "or"))
    if op == "not":
        return ["not", _formula(atoms, rng, depth - 1, modal)]
    return [op, _formula(atoms, rng, depth - 1, modal), _formula(atoms, rng, depth - 1, modal)]


def random_theory(rng: random.Random) -> dict:
    """Two definitions `a iff F` over three atoms (256 belief states)."""
    atoms = ["p", "q", "r"]
    sentences = [["iff", ["atom", a], _formula(atoms, rng, 2, True)] for a in rng.sample(atoms, 2)]
    return {"atoms": atoms, "sentences": sentences}


def _acceptance(args: list[str], values: list[str], rng: random.Random, depth: int = 0) -> list:
    """Constants, parents, glbs and full tables; no lub, which the review
    value poset lacks for some pairs."""
    r = rng.random()
    if r < 0.2:
        return ["const", rng.choice(values)]
    if r < 0.5:
        return ["parent", rng.choice(args)]
    if r < 0.7 and depth == 0:
        return ["glb", _acceptance(args, values, rng, 1), _acceptance(args, values, rng, 1)]
    parents = rng.sample(args, rng.randint(1, 2))
    rows = [[list(key), rng.choice(values)] for key in itertools.product(values, repeat=len(parents))]
    return ["table", parents, rows]


def random_wadf(rng: random.Random) -> dict:
    """A wADF over the review value poset; three arguments give 216 elements."""
    values = worked("review_wadf")["values"]
    args = [f"a{i}" for i in range(WADF_ARGUMENTS)]
    acceptance = {a: _acceptance(args, values["elements"], rng) for a in args}
    return {"arguments": args, "values": values, "acceptance": acceptance}


# -- order structures ----------------------------------------------------------


def _bounded_complete(n: int, pairs: list[tuple[int, int]]) -> bool:
    """Least element plus a glb for every pair; pairs must run i < j."""
    down = [1 << i for i in range(n)]
    for j in range(n):
        for i, k in pairs:
            if k == j:
                down[j] |= down[i]
    if any(not d & 1 for d in down):
        return False
    for a, b in itertools.combinations(range(n), 2):
        common = down[a] & down[b]
        if not any(common >> g & 1 and down[g] == common for g in range(n)):
            return False
    return True


def _random_cpo_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random bounded-complete cpo on n elements, 0 least: rejection
    sampling of general shapes, falling back to a rooted tree."""
    for _ in range(60):
        pairs = [(0, j) for j in range(1, n)]
        pairs += [(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.35]
        if _bounded_complete(n, pairs):
            return pairs
    return [(rng.randint(0, j - 1), j) for j in range(1, n)]


def cpo_shapes() -> list[list[tuple[int, int]]]:
    """The fixed cpo shapes, CPOS_PER_SIZE of each size, sizes interleaved."""
    rng = random.Random(SHAPES_SEED)
    return [_random_cpo_pairs(n, rng) for _ in range(CPOS_PER_SIZE) for n in CPO_SIZES]


def relabelled_cpo(pairs: list[tuple[int, int]], rng: random.Random) -> dict:
    """A cpo shape with its elements renamed, and elements and pairs listed,
    in a random order."""
    n = 1 + max(j for _, j in pairs)
    names = [f"e{i}" for i in range(n)]
    rng.shuffle(names)
    listed = [[names[i], names[j]] for i, j in pairs]
    rng.shuffle(listed)
    return {"elements": rng.sample(names, n), "pairs": listed}


# -- the workloads' inputs -------------------------------------------------------


def corpus_sweep(seed: int) -> dict:
    rng = random.Random(seed)
    programs = rng.sample(grammar_programs(), GRAMMAR_DRAW)
    atoms = ("a", "b", "c", "d", "e")
    programs += [random_program(atoms, rng) for _ in range(RANDOM_PROGRAMS)]
    return {"programs": programs}


def large_solve(seed: int) -> dict:
    """One job per CLI call; a job is an input file plus a command."""
    rng = random.Random(seed)
    jobs = []
    for n, count, commands in LP_PLAN:
        atoms = tuple(f"x{i}" for i in range(n))
        for k in range(count):
            program = random_program(atoms, rng)
            for command in commands:
                jobs.append({"kind": "lp", "name": f"lp{n}-{k}", "data": program, "command": command})
    for k in range(AEL_THEORIES):
        jobs.append({"kind": "ael", "name": f"ael3-{k}", "data": random_theory(rng), "command": "solve-flower"})
    jobs.append({"kind": "wadf", "name": f"wadf{WADF_ARGUMENTS}", "data": random_wadf(rng), "command": "solve-flower"})
    jobs.append({"kind": "ael", "name": "agent_theory", "data": worked("agent_theory"), "command": "solve-flower"})
    jobs.append({"kind": "wadf", "name": "review_wadf", "data": worked("review_wadf"), "command": "solve-flower"})
    jobs.append({"kind": "lp", "name": "even_loop", "data": worked("even_loop"), "command": "compare"})
    return {"jobs": jobs}


def axiom_check(seed: int) -> dict:
    rng = random.Random(seed)
    cpos = [relabelled_cpo(pairs, rng) for pairs in cpo_shapes()]
    three = list(single_rule_programs(("p", "q", "r")))
    return {
        "cpos": [{"poset": p, "seed": rng.randrange(1 << 30)} for p in cpos],
        "mid_checks": [{"checker": c, "seed": MID_SEED} for c in MID_CHECKERS],
        "mutants": list(MUTANTS),
        "transfer": [{"program": p, "seed": rng.randrange(1 << 30)} for p in rng.sample(three, TRANSFER_PROGRAMS)],
        "induction_programs": [random_program(("p", "q", "r"), rng) for _ in range(INDUCTION_PROGRAMS)],
        "inductions": [
            {"approximator": k, "seeds": [rng.randrange(1 << 30) for _ in range(INDUCTION_BATCH)]}
            for k in range(INDUCTION_PROGRAMS + 1)
            for _ in range(INDUCTION_BATCHES)
        ],
    }


GENERATORS = {
    "corpus_sweep": corpus_sweep,
    "large_solve": large_solve,
    "axiom_check": axiom_check,
}
