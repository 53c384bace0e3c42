"""Scenario loading, the bundled corpus, CLI dispatch and exit codes."""

import functools
import json
import operator
import os
import shlex
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import dgkit
from dgkit import cli
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


def test_fractional_entries_round_trip_through_parse_and_render():
    def doc(entries):
        return {"field": "Q", "complexes": {"C": {"dims": {"-1": 2, "0": 2}, "d": {"-1": entries}}},
                "commands": [{"run": "cohomology", "complex": "C"}]}

    written = [["1/2", "4/2"], ["0", "-3/6"]]
    first = load_scenario_dict(doc(written)).complexes["C"].diff(-1)
    rendered = [[QQ.render(v) for v in row] for row in first.entries]
    assert rendered == [["1/2", "2"], ["0", "-1/2"]]
    again = load_scenario_dict(doc(rendered)).complexes["C"].diff(-1)
    assert again == first
    assert [[QQ.render(v) for v in row] for row in again.entries] == rendered
    assert [[QQ.parse(v) for v in row] for row in written] == [[QQ.parse(v) for v in row] for row in rendered]
    assert type(QQ.parse("4/2")) is int


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


@pytest.mark.parametrize("doc, overrides", [
    # valid in characteristic 2 only: replayed over the document's Q, it exits 2
    ({"field": "Q", "rings": {"R": {"dual_numbers": {"n": 3, "eps_degree": -1}}},
      "morphisms": {"theta": {"augmentation": "R"}},
      "commands": [{"run": "factorize", "morphism": "theta"}]}, ["--field", "Fp:2"]),
    # Tor of k over k[e]/(e^3), |e| = 0: replayed on the document's window, 7 degrees instead of 11
    ({"field": "Q", "rings": {"R": {"dual_numbers": {"n": 3, "eps_degree": 0}}},
      "morphisms": {"theta": {"augmentation": "R"}}, "modules": {"k": {"restricted_ground": "theta"}},
      "windows": {"w": {"lo": -6, "hi": 0, "guard": 2}},
      "commands": [{"run": "derived-tensor", "left": "k", "right": "k", "window": "w"}]}, ["--window=-10:0"]),
], ids=["field", "window"])
def test_replay_reruns_the_same_invocation(tmp_path, doc, overrides):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = doc["commands"][0]["run"]
    runner = CliRunner()
    first = runner.invoke(main, [command, "--scenario", str(path), *overrides, "--format", "json"])
    assert first.exit_code == 0, first.output
    replay = shlex.split(json.loads(first.output)["replay"])
    assert replay[0] == "dgkit"
    again = runner.invoke(main, replay[1:] + ["--format", "json"])
    assert again.exit_code == first.exit_code, again.output
    assert json.loads(again.output)["results"] == json.loads(first.output)["results"]


def test_cli_field_override_builds_the_scenario_once_under_it(tmp_path):
    # e^3 = 0 with |e| = -1 is consistent only in characteristic 2, so the
    # document is valid under the override alone
    doc = {"field": "Q", "rings": {"R": {"dual_numbers": {"n": 3, "eps_degree": -1}}},
           "morphisms": {"theta": {"augmentation": "R"}},
           "commands": [{"run": "factorize", "morphism": "theta"}]}
    path = tmp_path / "e3_odd.json"
    path.write_text(json.dumps(doc))
    runner = CliRunner()
    assert runner.invoke(main, ["factorize", "--scenario", str(path)]).exit_code == 2
    res = runner.invoke(main, ["factorize", "--scenario", str(path), "--field", "Fp:2"])
    assert res.exit_code == 0, res.output


def test_cli_missing_command_in_scenario():
    runner = CliRunner()
    res = runner.invoke(main, ["deform", "--scenario", bundled("cohomology_basic.json")])
    assert res.exit_code == 2


@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_cli_truncate_keeps_the_cohomology_on_its_side_and_rejects_an_unknown_kind(field, tmp_path):
    # H^-2, H^0 and H^2 of dimension 1: d^-1 hits e1 in degree 0 and d^0 reads e2
    doc = {"field": field,
           "complexes": {"C": {"dims": {"-2": 1, "-1": 1, "0": 3, "1": 1, "2": 1},
                               "d": {"-1": [["1"], ["0"], ["0"]], "0": [["0", "1", "0"]]}}},
           "commands": [{"run": "truncate", "complex": "C", "n": 0, "kind": "gt"}]}
    scn = load_scenario_dict(doc)
    full = cli.run("cohomology", scn, {"complex": "C"})["dims"]
    assert full == {"-2": 1, "0": 1, "2": 1}
    for n in range(-3, 4):
        for kind, keep in (("ge", lambda d: d >= n), ("le", lambda d: d <= n)):
            got = cli.run("truncate", scn, {"complex": "C", "n": n, "kind": kind})
            assert got["passed"] is True
            assert got["dims"] == {d: v for d, v in full.items() if keep(int(d))}
    with pytest.raises(ScenarioError, match="truncation kind must be 'le' or 'ge', got 'gt'"):
        cli.run("truncate", scn, doc["commands"][0])
    path = tmp_path / "truncate_gt.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["truncate", "--scenario", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: commands: truncation kind must be 'le' or 'ge', got 'gt'\n"


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
# e.e = 1 for |e| = -1 lands in degree -2, where the ring has no basis element
WRONG_DEGREE_PRODUCT_RING = {
    "S": {"table": {"basis": [{"degree": 0, "label": "1"}, {"degree": -1, "label": "e"}],
                    "unit": 0,
                    "mult": {"0,0": {"0": "1"}, "0,1": {"1": "1"}, "1,0": {"1": "1"},
                             "1,1": {"0": "1"}}}},
}
NON_MULTIPLICATIVE_MORPHISM = {
    "R": {"dual_numbers": {"n": 2, "eps_degree": 0}},
}


@pytest.mark.parametrize("rings, morphisms, message", [
    (NON_ASSOCIATIVE_RING, {}, "error: rings.S: S: associativity fails on (x, x, y)"),
    (WRONG_DEGREE_PRODUCT_RING, {}, "error: rings.S: S: product e*e has wrong degree"),
    (NON_MULTIPLICATIVE_MORPHISM,
     {"bad": {"source": "R", "target": "R", "components": {"0": [["1", "1"], ["0", "0"]]}}},
     "error: morphisms.bad: bad: morphism not multiplicative on (e, e)"),
], ids=["non-associative-table", "wrong-degree-product", "non-multiplicative-morphism"])
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


# -- the exit-code contract under malformed input ------------------------------------

CORPUS = {name: json.loads(Path(bundled(name)).read_text()) for name in (
    "cohomology_basic.json", "coend_examples.json", "deform_dual_numbers.json",
    "dual_numbers_n3.json", "gap_category.json")}
JUNK = st.sampled_from([None, True, -1, 0, 2.5, "x", "1/0", "", [], {}, [[]], {"0": "x"}])


def json_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_paths(value, path + (i,))


@st.composite
def scenario_texts(draw, doc):
    """The document intact, truncated, with one value replaced by junk, or with one key dropped."""
    text = json.dumps(doc)
    kind = draw(st.sampled_from(["intact", "truncated", "mistyped", "dropped"]))
    if kind == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    paths = [p for p in json_paths(doc) if p]
    if kind == "intact" or not paths:
        return text
    path = draw(st.sampled_from(paths))
    doc = json.loads(text)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "mistyped":
        parent[path[-1]] = draw(JUNK)
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    return json.dumps(doc)


@st.composite
def cli_invocations(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    doc = CORPUS[name]
    command = draw(st.sampled_from(sorted({c["run"] for c in doc["commands"]})))
    args = [command, "--format", "json"]
    field = draw(st.one_of(st.none(), st.sampled_from(
        ["Q", "Fp:7", "Fp:2", "Fp:x", "Fp:4", "Fp:", "Fp:-5", "Fp:1", "R", "{}"]), st.text(max_size=5)))
    if field is not None:
        args += ["--field", field]
    window = draw(st.one_of(st.none(), st.sampled_from(["5", "a:b", "0:-2", "1:2:3", ":", "", "-1.5:0"]),
                            st.tuples(st.integers(-3, 1), st.integers(-2, 1)).map("{0[0]}:{0[1]}".format)))
    if window is not None:
        args += ["--window", window]
    cap = draw(st.sampled_from([None, "x", "", "-1", "0", "2", "16", "1e3"]))
    return args, draw(scenario_texts(doc)), {} if cap is None else {"DGKIT_DEGREE_CAP": cap}


@settings(max_examples=80, deadline=None)
@given(cli_invocations())
@example((["cohomology", "--format", "json"], json.dumps(
    {"field": "Q", "complexes": {"C": {"dims": {"0": 1, "1": 1}, "d": {"0": [["1/0"]]}}},
     "commands": [{"run": "cohomology", "complex": "C"}]}), {}))
@example((["factorize", "--format", "json"], json.dumps(
    {"field": "Q", "rings": {"R": {"table": {"unit": 0}}}, "commands": []}), {}))
@example((["check-hlc", "--format", "json"], json.dumps(
    {"field": "Q", "categories": {"gap": {"weak_cokernel_gap": True}}, "commands": [{"run": "check-hlc"}]}), {}))
@example((["check-hlc", "--format", "json"], json.dumps(CORPUS["gap_category.json"]), {}))
def test_cli_fuzz_keeps_exit_code_contract(invocation):
    args, text, env = invocation
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            fh.write(text)
        result = CliRunner().invoke(main, [*args, "--scenario", path], env=env)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.output
    if result.exit_code == 2:
        assert result.stderr.startswith("error: ")
    else:
        report = json.loads(result.stdout)
        failed = [r for r in report["results"] if not r["passed"]]
        assert report["passed"] == (result.exit_code == 0) == (not failed)
        # the top-level list names exactly the entries rendered "unchecked"
        results = report["results"]
        entries = ["/results" + "".join(f"/{key}" for key in path) for path in json_paths(results)
                   if functools.reduce(operator.getitem, path, results) == "unchecked"]
        assert sorted(u["path"] for u in report["unchecked"]) == sorted(entries)
