"""The command-line surface: exit codes, determinism, golden values."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import genaft
from genaft.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_bounded_complete_poset(capsys, data_dir):
    code, out, _ = run(capsys, "check", str(data_dir / "vee_poset.json"))
    assert code == 0
    assert "bounded-complete cpo" in out
    assert "flower framework axioms: pass" in out


def test_check_complete_lattice_runs_both_spaces(capsys, data_dir):
    code, out, _ = run(capsys, "check", str(data_dir / "vee_lattice.json"))
    assert code == 0
    assert "interval framework axioms: pass" in out
    assert "flower framework axioms: pass" in out


def test_check_cyclic_input_exits_two(capsys, data_dir):
    code, _, err = run(capsys, "check", str(data_dir / "cyclic.json"))
    assert code == 2
    assert err == "input error: cycle through 'x' and 'y'\n"


def test_check_missing_file_exits_two(capsys, data_dir):
    code, _, err = run(capsys, "check", str(data_dir / "nope.json"))
    assert code == 2


def test_check_json_format(capsys, data_dir):
    code, out, _ = run(capsys, "check", str(data_dir / "vee_poset.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"]["is_bounded_complete"] is True
    assert "flower" in payload["checks"]


def test_solve_agent_interval_wf_is_uninformative(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "solve",
        str(data_dir / "agent_theory.json"),
        "--space",
        "interval",
        "--semantics",
        "kk,wf",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    # both fixpoints stay at the least approximant: nothing is derived
    assert payload["semantics"]["kk"]["aub"] == "{}"
    assert payload["semantics"]["wf"]["aub"] == "{}"
    assert payload["semantics"]["kk"]["alb"].count("{") == 9


def test_solve_agent_flower_wf_finds_the_belief_state(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "solve",
        str(data_dir / "agent_theory.json"),
        "--space",
        "flower",
        "--semantics",
        "wf",
    )
    assert code == 0
    assert "exact: {{p,q},{q}}" in out


def test_solve_review_interval_exits_three(capsys, data_dir):
    code, _, err = run(capsys, "solve", str(data_dir / "review_wadf.json"))
    assert code == 3
    assert "use --space flower" in err


def test_solve_review_flower_status(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "solve",
        str(data_dir / "review_wadf.json"),
        "--space",
        "flower",
        "--semantics",
        "kk",
    )
    assert code == 0
    assert "(accept|borderline|tendency_accept)" in out


def test_solve_unknown_semantics_exits_two(capsys, data_dir):
    code, _, err = run(
        capsys, "solve", str(data_dir / "even_loop.json"), "--semantics", "kk,magic"
    )
    assert code == 2
    assert "magic" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [["solve"], ["compare", "--approximator-a", "fitting"]])
def test_a_repeated_semantics_is_reported_once(capsys, data_dir, command, fmt):
    """Each name once, at the position of its first occurrence."""
    path = str(data_dir / "even_loop.json")
    once = run(capsys, *command, path, "--semantics", "wf,kk", "--format", fmt)
    assert once[0] == 0
    assert run(capsys, *command, path, "--semantics", "wf,kk,wf,kk", "--format", fmt) == once


def test_solve_fitting_on_flower_exits_three(capsys, data_dir):
    code, _, err = run(
        capsys,
        "solve",
        str(data_dir / "even_loop.json"),
        "--space",
        "flower",
        "--approximator",
        "fitting",
    )
    assert code == 3


def test_compare_fitting_vs_ultimate(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "compare",
        str(data_dir / "even_loop.json"),
        "--approximator-a",
        "fitting",
        "--approximator-b",
        "ultimate",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["wf_a_leq_b"] is True
    assert payload["verdicts"]["stable_a_subset_b"] is True


def test_compare_interval_vs_flower_reports_gap(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "compare",
        str(data_dir / "agent_theory.json"),
        "--space-a",
        "interval",
        "--approximator-a",
        "ultimate",
        "--space-b",
        "flower",
        "--approximator-b",
        "ultimate",
        "--semantics",
        "wf",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"]["wf_a_leq_b"] is True
    assert payload["verdicts"]["wf_equal"] is False


def test_compare_identical_configs_report_equality(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "compare",
        str(data_dir / "even_loop.json"),
        "--approximator-a",
        "ultimate",
        "--approximator-b",
        "ultimate",
    )
    assert code == 0
    assert "wf_equal: true" in out


def test_output_is_deterministic(capsys, data_dir):
    args = (
        "solve",
        str(data_dir / "agent_theory.json"),
        "--space",
        "flower",
        "--format",
        "json",
    )
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_solve_over_the_atom_cap_exits_two(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"atoms": [f"a{i}" for i in range(17)], "rules": []}))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert err == "input error: 17 atoms exceed the cap of 16\n"


def test_check_of_a_sixteen_atom_program_exits_two_at_once(capsys, data_dir):
    path = data_dir / "golden" / "inputs" / "lp16.json"
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert err == "input error: powerset would have 65536 elements, cap is 4096\n"


def test_the_size_caps_are_not_options():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "input.json", "--max-elements", "5"])
    assert exc.value.code == 2


def test_solve_of_a_five_argument_wadf_exits_two_at_once(capsys, data_dir, tmp_path):
    """Six values over five arguments make a 7,776-element product, past
    the explicit-poset cap that `solve` shares with `check`."""
    wadf4 = json.loads((data_dir / "golden" / "inputs" / "wadf4.json").read_text())
    arguments = [f"a{i}" for i in range(5)]
    path = tmp_path / "wadf5.json"
    path.write_text(json.dumps({
        "arguments": arguments,
        "values": wadf4["values"],
        "acceptance": {a: ["parent", a] for a in arguments},
    }))
    code, _, err = run(capsys, "solve", str(path), "--space", "flower")
    assert code == 2
    assert err == "input error: product would have 7776 elements, cap is 4096\n"


@pytest.mark.parametrize("command", [["check"], ["solve", "--space", "flower"]])
def test_a_wadf_condition_for_an_undeclared_argument_exits_two(capsys, data_dir, tmp_path, command):
    """The first undeclared key in sorted order is named, even when its
    condition would not parse."""
    review = json.loads((data_dir / "review_wadf.json").read_text())
    review["acceptance"]["ghost"] = ["const", "accept"]
    review["acceptance"]["extra"] = ["parent", "nobody"]
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(review))
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err == "input error: acceptance condition for undeclared argument 'extra'\n"


def test_check_unknown_hasse_element_exits_two(capsys, tmp_path):
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps({"elements": ["x"], "hasse": [["x", "ghost"]]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "ghost" in err


def test_undeclared_atom_error_names_the_same_atom_under_every_hash_seed(tmp_path):
    """The first undeclared atom in sorted body order, not in the hash
    order of the body's frozenset: one process per PYTHONHASHSEED."""
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps({"atoms": ["p"], "rules": [{"head": "p", "pos": ["x", "y", "z", "w"]}]}))
    src = str(pathlib.Path(genaft.__file__).parent.parent)
    for seed in ("1", "2", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from genaft.cli import main; sys.exit(main(sys.argv[1:]))",
             "solve", str(path)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), seed
        assert proc.stderr == "input error: rule mentions undeclared atom 'w'\n", seed


_VALUES = {"elements": ["x"], "hasse": []}
MALFORMED_IDENTIFIERS = {
    "hasse_pair_of_a_list": {"elements": ["a", "b"], "hasse": [[["a"], "b"]]},
    "lp_head_list": {"atoms": ["p"], "rules": [{"head": ["p"]}]},
    "lp_atom_number": {"atoms": [1], "rules": []},
    "lp_pos_string": {"atoms": ["p"], "rules": [{"head": "p", "pos": "p"}]},
    "lp_neg_object": {"atoms": ["p"], "rules": [{"head": "p", "neg": {"p": 1}}]},
    "ael_atom_number": {"atoms": [1], "sentences": []},
    "wadf_const_list": {"arguments": ["a"], "values": _VALUES, "acceptance": {"a": ["const", ["x"]]}},
    "wadf_argument_list": {"arguments": [["a"]], "values": _VALUES, "acceptance": {}},
    "wadf_table_parent_list": {
        "arguments": ["a"], "values": _VALUES, "acceptance": {"a": ["table", [["a"]], [[["x"], "x"]]]},
    },
    "wadf_table_key_list": {
        "arguments": ["a"], "values": _VALUES, "acceptance": {"a": ["table", ["a"], [[[["x"]], "x"]]]},
    },
    "wadf_missing_acceptance": {
        "arguments": ["a", "b"], "values": _VALUES, "acceptance": {"a": ["const", "x"]},
    },
}


@pytest.mark.parametrize("case", MALFORMED_IDENTIFIERS)
def test_malformed_identifiers_exit_two(capsys, tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(MALFORMED_IDENTIFIERS[case]))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1, err


MALFORMED_WADF_STRUCTURE = {
    "acceptance_string": {"arguments": ["a"], "values": _VALUES, "acceptance": "abc"},
    "table_rows_number": {"arguments": ["a"], "values": _VALUES, "acceptance": {"a": ["table", ["a"], 5]}},
    "table_row_without_output": {
        "arguments": ["a"], "values": _VALUES, "acceptance": {"a": ["table", ["a"], [[["x"]]]]},
    },
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("case", MALFORMED_WADF_STRUCTURE)
def test_malformed_wadf_structure_exits_two(capsys, tmp_path, case, command):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(MALFORMED_WADF_STRUCTURE[case]))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1, err


_VEE = {"elements": ["bot", "a", "b"], "hasse": [["bot", "a"], ["bot", "b"]]}


def _wadf(acceptance, **fields):
    return json.dumps({"arguments": ["a"], "values": _VALUES, "acceptance": {"a": acceptance}} | fields)


# (file contents, exit code, stderr prefix with the file's path spelled "<file>")
ERROR_EDGES = {
    "invalid_json": ("{", 2, "input error: <file>: invalid JSON at line 1"),
    "json_list": ("[]", 2, "input error: <file>: expected a JSON object"),
    "no_known_key": ("{}", 2, "input error: unrecognised input"),
    "ael_sentence_not_a_list": (
        json.dumps({"atoms": ["p"], "sentences": ["p"]}), 2, "input error: malformed formula node"),
    "ael_bare_atom": (
        json.dumps({"atoms": ["p"], "sentences": [["atom"]]}), 2, "input error: malformed atom node"),
    "ael_bare_and": (
        json.dumps({"atoms": ["p"], "sentences": [["and"]]}), 2, "input error: and needs at least one"),
    "ael_duplicate_atoms": (
        json.dumps({"atoms": ["p", "p"], "sentences": []}), 2, "input error: duplicate atoms"),
    "ael_missing_atoms": (json.dumps({"sentences": []}), 2, "input error: malformed theory JSON"),
    "wadf_acceptance_not_a_list": (_wadf("x"), 2, "input error: malformed acceptance node"),
    "wadf_bare_glb": (_wadf(["glb"]), 2, "input error: glb needs at least one"),
    "wadf_table_over_undeclared": (
        _wadf(["table", ["ghost"], []]), 2, "input error: table over undeclared arguments"),
    "wadf_table_key_length": (_wadf(["table", ["a"], [[["x", "x"], "x"]]]), 2, "input error: bad table row"),
    "wadf_unknown_node": (_wadf(["max", ["const", "x"]]), 2, "input error: unknown acceptance node 'max'"),
    "wadf_duplicate_arguments": (
        _wadf(["const", "x"], arguments=["a", "a"]), 2, "input error: duplicate arguments"),
    "wadf_missing_values": (
        json.dumps({"arguments": ["a"], "acceptance": {"a": ["const", "x"]}}), 2,
        "input error: malformed wADF JSON"),
    "wadf_values_without_elements": (
        _wadf(["const", "x"], values={"hasse": []}), 2, 'input error: poset JSON needs an "elements" list'),
    "wadf_zero_arguments": (
        json.dumps({"arguments": [], "values": _VALUES, "acceptance": {}}), 2,
        "input error: product of zero posets"),
    "wadf_values_not_bounded_complete": (
        _wadf(["const", "x"], values={"elements": ["x", "y"], "hasse": []}), 3,
        "precondition error: the acceptance-value poset must be a bounded-complete cpo"),
    "wadf_missing_lub": (
        _wadf(["lub", ["const", "a"], ["const", "b"]], values=_VEE), 3,
        "error: acceptance of 'a' asks for a lub of ['a', 'b']"),
    "lp_rule_without_head": (
        json.dumps({"atoms": ["p"], "rules": [{"pos": ["p"]}]}), 2, "input error: malformed program JSON"),
}


@pytest.mark.parametrize("case", ERROR_EDGES)
def test_each_error_at_the_json_edge_exits_with_one_stderr_line(capsys, tmp_path, case):
    text, expected_code, prefix = ERROR_EDGES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (expected_code, "")
    assert err.replace(str(path), "<file>").startswith(prefix) and err.count("\n") == 1, err


@pytest.mark.parametrize("poset, classification", [
    ({"elements": ["x", "y"], "hasse": []}, "poset without a least element"),
    ({"elements": ["bot", "a", "b", "c", "d"],
      "hasse": [["bot", "a"], ["bot", "b"], ["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"]]}, "cpo"),
], ids=["no-least", "not-bounded-complete"])
def test_check_text_names_a_poset_no_framework_applies_to(capsys, tmp_path, poset, classification):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    code, out, err = run(capsys, "check", str(path), "--format", "text")
    assert (code, err) == (0, "")
    assert out == (f"elements: {len(poset['elements'])}\nclassification: {classification}\n"
                   "no framework applies: the poset is not a bounded-complete cpo\n")
