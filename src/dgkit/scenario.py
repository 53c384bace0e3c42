"""Scenario ingestion: one JSON document declares the field, named rings,
morphisms, complexes, categories, modules, bimodules and windows, plus the
commands to run.  Every declared invariant is re-validated at load; failures
carry the JSON location and the offending entity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources
from typing import Dict, List, Optional

from .bimodules import Bimodule, Module
from .complexes import ChainMap, Complex
from .derived import DegreeWindow, restricted_ground_module, ring_as_module
from .dgcat import DgCategory, one_object_category
from .dgring import DgRing, DgRingMorphism, make_dual_numbers
from .errors import DgkitError, ScenarioError, ValidationError
from .fields import Field, field_from_spec
from .instances import (
    cross_representable_bimodule,
    exterior_extension_ring,
    exterior_one_object_category,
    free_arrow_category,
    outer_representable_bimodule,
    weak_cokernel_gap_category,
)
from .matrix import Mat


@dataclass
class Scenario:
    field: Field
    rings: Dict[str, DgRing] = dc_field(default_factory=dict)
    morphisms: Dict[str, DgRingMorphism] = dc_field(default_factory=dict)
    complexes: Dict[str, Complex] = dc_field(default_factory=dict)
    maps: Dict[str, ChainMap] = dc_field(default_factory=dict)
    categories: Dict[str, DgCategory] = dc_field(default_factory=dict)
    modules: Dict[str, Module] = dc_field(default_factory=dict)
    bimodules: Dict[str, Bimodule] = dc_field(default_factory=dict)
    windows: Dict[str, DegreeWindow] = dc_field(default_factory=dict)
    commands: List[Dict] = dc_field(default_factory=list)

    def resolve(self, table: str, name: str, location: str):
        try:
            return getattr(self, table)[name]
        except (KeyError, TypeError):
            raise ScenarioError(f"unknown {table[:-1]} {name!r}", location) from None


def _parse_matrix(field: Field, rows_spec, rows: int, cols: int, location: str) -> Mat:
    if not isinstance(rows_spec, list) or len(rows_spec) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in rows_spec):
        raise ScenarioError(f"matrix must be {rows}x{cols} row-major", location)
    try:
        entries = [[field.parse(v) for v in row] for row in rows_spec]
    except DgkitError as exc:
        raise ScenarioError(str(exc), location)
    return Mat(field, rows, cols, entries)


def _build_complex(scn: Scenario, name: str, spec, location: str) -> Complex:
    field = scn.field
    dims_spec = spec.get("dims", {})
    try:
        dims = {int(k): int(v) for k, v in dims_spec.items()}
    except (TypeError, ValueError):
        raise ScenarioError("dims must map degree strings to counts", f"{location}.dims")
    diffs = {}
    for k, m in spec.get("d", {}).items():
        deg = int(k)
        rows = dims.get(deg + 1, 0)
        cols = dims.get(deg, 0)
        diffs[deg] = _parse_matrix(field, m, rows, cols, f"{location}.d.{k}")
    labels = None
    if "labels" in spec:
        labels = {int(k): tuple(v) for k, v in spec["labels"].items()}
    return Complex(field, dims, diffs, labels=labels, name=name)


def _build_ring(scn: Scenario, name: str, spec, location: str) -> DgRing:
    field = scn.field
    if "dual_numbers" in spec:
        params = spec["dual_numbers"]
        ring, aug = make_dual_numbers(int(params["n"]), int(params["eps_degree"]), field)
        scn.morphisms.setdefault(f"{name}.augmentation", aug)
        return ring
    if spec.get("ground_field"):
        return DgRing.ground_field(field)
    if "exterior_over" in spec:
        base = scn.resolve("rings", spec["exterior_over"]["ring"], location)
        return exterior_extension_ring(base, int(spec["exterior_over"].get("gen_degree", -1)))
    if "table" in spec:
        tbl = spec["table"]
        basis = tbl.get("basis", [])
        degrees = [int(b["degree"]) for b in basis]
        labels = [str(b.get("label", f"x{i}")) for i, b in enumerate(basis)]
        mult_spec = {}
        for key, img in tbl.get("mult", {}).items():
            i, j = (int(p) for p in key.split(","))
            mult_spec[(i, j)] = {int(k): field.parse(v) for k, v in img.items()}
        diff_spec = None
        if "differential" in tbl:
            diff_spec = {int(k): {int(kk): field.parse(vv) for kk, vv in v.items()}
                         for k, v in tbl["differential"].items()}

        def mult(i, j):
            return mult_spec.get((i, j), {})

        return DgRing.from_table(field, degrees, labels, int(tbl["unit"]), mult,
                                 differential=diff_spec, name=name)
    raise ScenarioError("unrecognized ring declaration", location)


def _build_morphism(scn: Scenario, name: str, spec, location: str) -> DgRingMorphism:
    field = scn.field
    if "identity" in spec:
        ring = scn.resolve("rings", spec["identity"], location)
        return DgRingMorphism.identity(ring)
    if "augmentation" in spec:
        key = f"{spec['augmentation']}.augmentation"
        if key in scn.morphisms:
            return scn.morphisms[key]
        raise ScenarioError("augmentation is only predeclared for dual-numbers rings", location)
    src = scn.resolve("rings", spec["source"], location)
    tgt = scn.resolve("rings", spec["target"], location)
    comps = {}
    for k, m in spec.get("components", {}).items():
        deg = int(k)
        comps[deg] = _parse_matrix(field, m, tgt.dim(deg), src.dim(deg), f"{location}.components.{k}")
    return DgRingMorphism(src, tgt, ChainMap(src.underlying, tgt.underlying, 0, comps), name=name)


def _build_category(scn: Scenario, name: str, spec, location: str) -> DgCategory:
    if "one_object" in spec:
        ring = scn.resolve("rings", spec["one_object"], location)
        return one_object_category(ring)
    if "free_arrow" in spec:
        ring = scn.resolve("rings", spec["free_arrow"], location)
        return free_arrow_category(ring, name=name)
    if spec.get("weak_cokernel_gap"):
        return weak_cokernel_gap_category(scn.field)
    if "exterior_one_object" in spec:
        params = spec["exterior_one_object"]
        ring = scn.resolve("rings", params["ring"], location)
        return exterior_one_object_category(ring, int(params.get("gen_degree", -1)))
    raise ScenarioError("unrecognized category declaration", location)


def _build_module(scn: Scenario, name: str, spec, location: str) -> Module:
    if "representable" in spec:
        cat = scn.resolve("categories", spec["over"], location)
        obj = spec["representable"]
        if obj not in cat.objects:
            raise ScenarioError(f"object {obj!r} not in category", location)
        return Module.representable(cat, obj, name=name)
    if "restricted_ground" in spec:
        theta = scn.resolve("morphisms", spec["restricted_ground"], location)
        return restricted_ground_module(theta)
    if "ring_free" in spec:
        ring = scn.resolve("rings", spec["ring_free"], location)
        return ring_as_module(ring)
    raise ScenarioError("unrecognized module declaration", location)


def _build_bimodule(scn: Scenario, name: str, spec, location: str) -> Bimodule:
    if "diagonal" in spec:
        cat = scn.resolve("categories", spec["diagonal"], location)
        return Bimodule.diagonal(cat, name=name)
    if "outer" in spec:
        params = spec["outer"]
        cat = scn.resolve("categories", params["cat"], location)
        return outer_representable_bimodule(cat, params["x"], params["y"], name=name)
    if "cross" in spec:
        params = spec["cross"]
        acat = scn.resolve("categories", params["acat"], location)
        bcat = scn.resolve("categories", params["bcat"], location)
        return cross_representable_bimodule(acat, bcat, params["a0"], params["b0"], name=name)
    raise ScenarioError("unrecognized bimodule declaration", location)


def _build_map(scn: Scenario, name: str, spec, location: str) -> ChainMap:
    src = scn.resolve("complexes", spec["source"], location)
    tgt = scn.resolve("complexes", spec["target"], location)
    degree = int(spec.get("degree", 0))
    comps = {}
    for k, m in spec.get("components", {}).items():
        deg = int(k)
        comps[deg] = _parse_matrix(scn.field, m, tgt.dim(deg + degree), src.dim(deg),
                                   f"{location}.components.{k}")
    return ChainMap(src, tgt, degree, comps)


def load_scenario_dict(doc: Dict, source_name: str = "<dict>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object", source_name)
    try:
        field = field_from_spec(doc.get("field", "Q"))
    except DgkitError as exc:
        raise ScenarioError(str(exc), "field")
    scn = Scenario(field=field)
    for table, build in (("rings", _build_ring), ("morphisms", _build_morphism),
                         ("complexes", _build_complex), ("maps", _build_map),
                         ("categories", _build_category), ("modules", _build_module),
                         ("bimodules", _build_bimodule)):
        for name, spec in doc.get(table, {}).items():
            location = f"{table}.{name}"
            try:
                getattr(scn, table)[name] = build(scn, name, spec, location)
            except ValidationError as exc:
                raise ScenarioError(str(exc), location)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                # a missing key, or a value of the wrong type or form
                raise ScenarioError(f"malformed declaration ({type(exc).__name__}: {exc})",
                                    location) from None
    for name, spec in doc.get("windows", {}).items():
        try:
            scn.windows[name] = DegreeWindow(int(spec["lo"]), int(spec["hi"]),
                                             int(spec.get("guard", 2)))
        except (ValidationError, KeyError, ValueError) as exc:
            raise ScenarioError(str(exc), f"windows.{name}")
    commands = doc.get("commands", [])
    if not isinstance(commands, list):
        raise ScenarioError("commands must be a list", "commands")
    scn.commands = commands
    return scn


def validate_against_schema(doc: Dict):
    import jsonschema
    with resources.files("dgkit.data").joinpath("schema.json").open("r") as fh:
        schema = json.load(fh)
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise ScenarioError(exc.message, "/".join(str(p) for p in exc.absolute_path))


def load_scenario(path: str, field: Optional[str] = None) -> Scenario:
    """The scenario of the file at ``path``; ``field``, the command line's
    ``--field``, replaces the document's field before the document is
    validated and built, so it is built once, under that field."""
    try:
        with open(path, "r") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError("scenario file not found", path)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error: {exc}", f"{path}:{exc.lineno}:{exc.colno}")
    if field and isinstance(doc, dict):
        doc["field"] = field
    validate_against_schema(doc)
    return load_scenario_dict(doc, source_name=path)
