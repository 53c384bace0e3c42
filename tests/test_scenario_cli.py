"""Scenario loading, the bundled corpus, CLI dispatch and exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

import dgkit
from dgkit.cli import main
from dgkit.dgring import make_dual_numbers
from dgkit.errors import ScenarioError
from dgkit.fields import QQ
from dgkit.scenario import load_scenario, load_scenario_dict


def bundled(name: str) -> str:
    return str(resources.files("dgkit.data").joinpath("scenarios").joinpath(name))


def test_minimal_scenario_loads():
    scn = load_scenario_dict({"field": "Q",
                              "rings": {"R": {"dual_numbers": {"n": 2, "eps_degree": -1}}}})
    assert "R" in scn.rings


def test_bad_d_squared_rejected_with_entity():
    with pytest.raises(ScenarioError) as exc:
        load_scenario_dict({
            "field": "Q",
            "complexes": {"C": {"dims": {"0": 1, "1": 1, "2": 1},
                                "d": {"0": [["1"]], "1": [["1"]]}}},
        })
    assert "C" in str(exc.value)


def test_bundled_dual_numbers_n3_matches_constructor():
    scn = load_scenario(bundled("dual_numbers_n3.json"))
    ring = scn.rings["R"]
    reference, _ = make_dual_numbers(3, -2, QQ)
    assert {d: ring.dim(d) for d in ring.degrees()} == \
        {d: reference.dim(d) for d in reference.degrees()}
    for dx, i in ring.basis():
        for dy, j in ring.basis():
            assert ring.mul_basis(dx, i, dy, j) == reference.mul_basis(dx, i, dy, j)


def test_bundled_corpus_loads():
    for name in ["deform_dual_numbers.json", "cohomology_basic.json",
                 "coend_examples.json", "gap_category.json"]:
        scn = load_scenario(bundled(name))
        assert scn.commands


def test_schema_rejects_unknown_top_level():
    with pytest.raises(ScenarioError):
        load_scenario_dict_with_schema({"field": "Q", "bogus": {}})


def load_scenario_dict_with_schema(doc):
    from dgkit.scenario import validate_against_schema
    validate_against_schema(doc)
    return load_scenario_dict(doc)


def test_cli_cohomology_and_exit_codes():
    runner = CliRunner()
    res = runner.invoke(main, ["cohomology", "--scenario", bundled("cohomology_basic.json")])
    assert res.exit_code == 0
    assert "[pass]" in res.output
    res = runner.invoke(main, ["check-hlc", "--scenario", bundled("gap_category.json")])
    assert res.exit_code == 1
    res = runner.invoke(main, ["cohomology", "--scenario", bundled("invalid_d_squared.json")])
    assert res.exit_code == 2


def test_cli_reports_are_deterministic():
    runner = CliRunner()
    args = ["end", "--scenario", bundled("coend_examples.json"), "--format", "json"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert payload["replay"].startswith("dgkit end --scenario")


def test_cli_window_override():
    runner = CliRunner()
    res = runner.invoke(main, ["derived-tensor", "--scenario", bundled("coend_examples.json"),
                               "--window", "-2:0", "--format", "json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    dims = payload["results"][0]["dims"]
    assert set(dims) == {"-2", "-1", "0"}


def test_cli_field_override_runs():
    runner = CliRunner()
    res = runner.invoke(main, ["cohomology", "--scenario", bundled("cohomology_basic.json"),
                               "--field", "Fp:5"])
    assert res.exit_code == 0


def test_cli_missing_command_in_scenario():
    runner = CliRunner()
    res = runner.invoke(main, ["deform", "--scenario", bundled("cohomology_basic.json")])
    assert res.exit_code == 2


def test_degree_cap_env(monkeypatch):
    monkeypatch.setenv("DGKIT_DEGREE_CAP", "4")
    from dgkit.complexes import degree_cap
    assert degree_cap() == 4
    with pytest.raises(ScenarioError):
        load_scenario_dict({"field": "Q",
                            "complexes": {"deep": {"dims": {"-9": 1}}}})


@pytest.mark.parametrize("args, env", [
    (["cohomology", "--scenario", bundled("cohomology_basic.json"), "--field", "Fp:x"], {}),
    (["derived-tensor", "--scenario", bundled("coend_examples.json"), "--window", "5"], {}),
    (["derived-tensor", "--scenario", bundled("coend_examples.json"), "--window", "a:b"], {}),
    (["cohomology", "--scenario", bundled("cohomology_basic.json")], {"DGKIT_DEGREE_CAP": "x"}),
], ids=["field", "window-one-part", "window-not-integers", "degree-cap-env"])
def test_cli_bad_input_exits_2_without_traceback(args, env):
    package_root = str(Path(dgkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dgkit.cli", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root, **env})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


NON_ASSOCIATIVE_RING = {
    "S": {"table": {"basis": [{"degree": 0, "label": "1"}, {"degree": 0, "label": "x"},
                              {"degree": 0, "label": "y"}],
                    "unit": 0,
                    "mult": {"0,0": {"0": "1"}, "0,1": {"1": "1"}, "1,0": {"1": "1"},
                             "0,2": {"2": "1"}, "2,0": {"2": "1"},
                             "1,1": {"2": "1"}, "2,2": {"2": "1"}}}},
}
NON_MULTIPLICATIVE_MORPHISM = {
    "R": {"dual_numbers": {"n": 2, "eps_degree": 0}},
}


@pytest.mark.parametrize("rings, morphisms, message", [
    (NON_ASSOCIATIVE_RING, {}, "error: rings.S: S: associativity fails on (x, x, y)"),
    (NON_MULTIPLICATIVE_MORPHISM,
     {"bad": {"source": "R", "target": "R", "components": {"0": [["1", "1"], ["0", "0"]]}}},
     "error: morphisms.bad: bad: morphism not multiplicative on (e, e)"),
], ids=["non-associative-table", "non-multiplicative-morphism"])
def test_cli_broken_law_exits_2_naming_basis_labels(tmp_path, rings, morphisms, message):
    doc = {"field": "Q", "rings": rings, "morphisms": morphisms,
           "commands": [{"run": "cohomology", "ring": next(iter(rings))}]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    package_root = str(Path(dgkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dgkit.cli", "cohomology", "--scenario", str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip() == message
