"""Command-line interface: frozen text output, JSON schema, exit codes."""

import json

import pytest

from planebundles.cli import run

JSON_SAMPLES = [
    ["normalize", "--pair", "5,6"],
    ["equiv", "--left", "0,0", "--right", "2,1"],
    ["hcob", "--left", "0,0", "--right", "2,1"],
    ["report", "--left", "0,1", "--right", "2,2"],
    ["chow", "--pair", "0,2", "--cube", "1,1"],
    ["moduli", "--pair", "0,0", "--dmax", "3", "--e", "1"],
    ["threshold", "--pair", "-1,0"],
    ["types", "--pair", "0,0", "--count", "2"],
    ["monad-check", "--pair", "-1,4", "--d", "7"],
    ["line", "--c1", "-1", "--d", "3"],
    ["scan", "--range", "0:1:-2:2"],
    ["verify", "--orbit-bound", "2", "--root-bound", "5",
     "--pair-bound", "1", "--search-bound", "2"],
]


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_text(capsys):
    code, out, _ = invoke(capsys, ["normalize", "--pair", "5,6"])
    assert code == 0
    assert out == "rep = (-1,0)  twist l = -3  (convention: c1 in {0,-1})\n"


def test_normalize_json(capsys):
    code, out, _ = invoke(capsys, ["normalize", "--pair", "5,6", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": "1",
        "command": "normalize",
        "pair": {"c1": 5, "c2": 6},
        "rep": {"c1": -1, "c2": 0},
        "l_used": -3,
        "convention": "c1 in {0,-1}",
    }


def test_equiv_text_variants(capsys):
    code, out, _ = invoke(capsys, ["equiv", "--left", "-1,0", "--right", "5,6"])
    assert code == 0
    assert out == "YES (twist-orbit): twist l=3\n"
    code, out, _ = invoke(capsys, ["equiv", "--left", "0,0", "--right", "0,1"])
    assert code == 0
    assert out == "NO (twist-orbit): discriminant 0 != -4\n"
    code, out, _ = invoke(capsys, ["equiv", "--left", "0,0", "--right", "1,0"])
    assert code == 0
    assert out == "NO (twist-orbit): c1 parity differs (0 vs 1)\n"


def test_equiv_json_carries_the_witness(capsys):
    _, out, _ = invoke(capsys, ["equiv", "--left", "0,0", "--right", "2,1", "--json"])
    payload = json.loads(out)
    assert payload["verdict"]["value"] == "yes"
    assert payload["witness_twist"] == 1


def test_negative_pair_values_parse(capsys):
    code, out, _ = invoke(capsys, ["normalize", "--pair", "-5,6"])
    assert code == 0
    assert out.startswith("rep = (-1,0)")


def test_hcob_text_variants(capsys):
    code, out, _ = invoke(capsys, ["hcob", "--left", "0,0", "--right", "2,1"])
    assert code == 0
    assert out == "YES (split-deformable): weakly equivalent; split root d=0\n"
    code, out, _ = invoke(capsys, ["hcob", "--left", "0,1", "--right", "2,2"])
    assert code == 0
    assert out == ("UNKNOWN (open-h-cobordism): weakly equivalent; "
                   "no integer d with d^2 - d*c1 + c2 = 0\n")
    code, out, _ = invoke(capsys, ["hcob", "--left", "0,0", "--right", "0,1"])
    assert code == 0
    assert out == "NO (weak-obstruction): not weakly equivalent\n"


def test_report_table(capsys):
    code, out, _ = invoke(capsys, ["report", "--left", "0,1", "--right", "0,1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "left (0,1)  right (0,1)"
    assert lines[1].split() == ["relation", "verdict", "reason", "witness"]
    assert lines[2].split() == ["a1_weak_equivalence", "yes", "twist-orbit", "0"]
    assert lines[6].split() == ["a1_h_cobordism", "unknown", "open-h-cobordism", "-"]
    assert lines[7].split() == [
        "a1_concordance_of_bundles", "yes", "identical-pair", "0"]


def test_chow_text(capsys):
    code, out, _ = invoke(capsys, ["chow", "--pair", "0,2", "--cube", "1,1"])
    assert code == 0
    assert out == (
        "ring: Z[H,t]/(H^3, t^2 + 2*H^2)\n"
        "cubic: 3*a^2*b - 2*b^3\n"
        "picard discriminant: -8\n"
        "standard cubic discriminant: 216 (= -27 * picard)\n"
        "cube at (a,b)=(1,1): 1\n"
    )


def test_moduli_table(capsys):
    code, out, _ = invoke(capsys, ["moduli", "--pair", "0,0", "--dmax", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pair (0,0)  dmax 3  (Q3 convention: inequality)"
    assert lines[1].split() == [
        "d", "Q1", "dim", "g(e=-1)", "g(e=0)", "g(e=1)", "g(e=2)"]
    assert lines[2].split() == ["0", "0", "Point", "2"]
    assert lines[5].split() == ["3", "9", "Dim(26)", "2", "2", "3", "3"]


def test_moduli_table_with_e_columns_and_star(capsys):
    code, out, _ = invoke(
        capsys, ["moduli", "--pair", "0,-8", "--dmax", "3", "--e", "-1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["d", "Q1", "dim", "g(e=-1)", "Q3", "Q4", "Q5"]
    assert lines[5].split() == ["3", "1", "Dim(2)", "10*", "10", "-8", "10"]
    assert lines[6] == (
        "* gamma exceeds 3*Q1 - 1; the stratum cannot fill the moduli space")


def test_moduli_q3_convention_flag(capsys):
    _, out, _ = invoke(capsys, [
        "moduli", "--pair", "0,-8", "--dmax", "3", "--e", "-1",
        "--q3-as-printed", "--json"])
    payload = json.loads(out)
    assert payload["q3_convention"] == "as-printed"


def test_threshold_and_types_text(capsys):
    code, out, _ = invoke(capsys, ["threshold", "--pair", "0,0"])
    assert code == 0
    assert out == "threshold d = 3\n"
    code, out, _ = invoke(capsys, ["types", "--pair", "0,0", "--count", "3"])
    assert code == 0
    assert out == "types: 4, 5, 6  (threshold 3, uniqueness bound 4)\n"
    code, out, _ = invoke(capsys, ["types", "--pair", "-1,0", "--count", "2"])
    assert code == 0
    assert out == "types: 3, 4  (threshold 2, uniqueness bound 3)\n"


def test_line_and_monad_text(capsys):
    code, out, _ = invoke(capsys, ["line", "--c1", "-1", "--d", "3"])
    assert code == 0
    assert out == "Hirzebruch index 7 (signed -7)\n"
    code, out, _ = invoke(capsys, ["monad-check", "--pair", "0,2", "--d", "3"])
    assert code == 0
    assert out == (
        "monad for (0,2) at d=3: sub degree -3, quot degree 3\n"
        "cohomology Chern pair: (0,2)  matches: yes\n"
    )


def test_scan_groups_by_orbit(capsys):
    code, out, _ = invoke(capsys, ["scan", "--range", "0:0:-2:2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "range c1 in [0,0], c2 in [-2,2]: 5 orbits"
    assert lines[1].split() == ["rep", "parity", "disc", "members", "hcob-to-split"]
    assert lines[2].split() == ["(0,-2)", "even", "8", "1", "unknown"]
    assert lines[4].split() == ["(0,0)", "even", "0", "1", "yes"]


def test_scan_members_cover_the_grid(capsys):
    _, out, _ = invoke(capsys, ["scan", "--range", "-2:2:-2:2", "--json"])
    payload = json.loads(out)
    assert sum(row["members"] for row in payload["orbits"]) == 25
    reps = [(row["rep"]["c1"], row["rep"]["c2"]) for row in payload["orbits"]]
    assert reps == sorted(reps)
    assert all(rep[0] in (0, -1) for rep in reps)


def test_verify_passes_at_small_bounds(capsys):
    code, out, _ = invoke(capsys, [
        "verify", "--orbit-bound", "2", "--root-bound", "5",
        "--pair-bound", "1", "--search-bound", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3/3 sweeps passed"
    assert lines[1].split() == [
        "orbit-oracle-vs-closed", "625", "0", "ok"]


def test_table_width_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PLANEBUNDLES_WIDTH", "12")
    _, out, _ = invoke(capsys, ["scan", "--range", "0:0:0:0"])
    header = out.splitlines()[1]
    assert header.startswith("rep         ")
    assert header.index("parity") == 14


def test_table_width_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("PLANEBUNDLES_WIDTH", "abc")
    code, _, err = invoke(capsys, ["scan", "--range", "0:0:0:0"])
    assert code == 2
    assert "PLANEBUNDLES_WIDTH" in err


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["equiv", "--left", "bad", "--right", "0,0"],
        ["equiv", "--left", "1,2,3", "--right", "0,0"],
        ["normalize"],
        ["nosuch"],
        [],
    ):
        code, _, err = invoke(capsys, argv)
        assert code == 1
        assert "usage error:" in err


def test_domain_errors_exit_two(capsys):
    for argv in (
        ["moduli", "--pair", "2,1", "--dmax", "3"],
        ["types", "--pair", "0,0", "--count", "0"],
        ["types", "--pair", "0,0", "--count", "1000001"],
        ["scan", "--range", "2:1:0:0"],
        ["scan", "--range", "0:2000:0:2000"],
    ):
        code, _, err = invoke(capsys, argv)
        assert code == 2, argv
        assert "domain error:" in err


def test_help_exits_zero(capsys):
    assert invoke(capsys, ["--help"])[0] == 0
    assert invoke(capsys, ["equiv", "--help"])[0] == 0


@pytest.mark.parametrize("argv", JSON_SAMPLES, ids=lambda a: a[0])
def test_json_mode_emits_schema_and_round_trips(capsys, argv):
    code, out, _ = invoke(capsys, argv + ["--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["command"] == argv[0]
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("argv", JSON_SAMPLES, ids=lambda a: a[0])
def test_output_is_deterministic(capsys, argv):
    first = invoke(capsys, argv)
    second = invoke(capsys, argv)
    assert first == second
