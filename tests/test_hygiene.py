"""Source hygiene: every name a module of the package or of its tests imports
is used in it."""

import ast
import importlib
from pathlib import Path

import dgkit
import reachability
from dgkit import matrix
from dgkit.fields import QQ

PACKAGE = Path(dgkit.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str):
    """Names bound by import statements and never loaded; a name that appears
    in a string annotation counts as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_unused_imports_are_found():
    src = "from typing import Dict, List\nimport os\n\ndef f(x: 'Dict[str, int]'):\n    return x\n"
    assert unused_imports(src) == [(1, "List"), (2, "os")]


def test_package_modules_import_only_what_they_use():
    # the test modules too; the package's __init__ imports to re-export
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    found = {f"{path.parent.name}/{path.name}": unused_imports(path.read_text())
             for path in paths + sorted(TESTS.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


# No function of the package builds a map one basis tensor at a time: every
# map, H^0 maps and the literal structure tables included, is built from
# blocks (``lifted_map``, ``map_from_blocks``).  TensorLayout.map_from_entries
# stays in complexes.py for two reasons: it is the elementwise reference the
# tests compare the block builders against, and the benchmark's tracer
# (perfbench/tracing.py) wraps it by name.
MAP_FROM_ENTRIES_CALLERS = set()


def callers_of(source: str, name: str):
    """The top-level functions, or Class.method, that call ``name(...)`` or
    ``.name(...)`` somewhere in their body, nested functions included."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, ast.FunctionDef):
                walk(child, child.name)
            elif owner is None and isinstance(child, ast.ClassDef):
                for item in child.body:
                    if isinstance(item, ast.FunctionDef):
                        walk(item, f"{child.name}.{item.name}")
            else:
                if isinstance(child, ast.Call) and getattr(child.func, "attr", getattr(child.func, "id", None)) == name:
                    found.add(owner)
                walk(child, owner)

    walk(ast.parse(source), None)
    return found


def test_callers_are_found():
    src = ("class A:\n    def m(self, lay):\n        def inner():\n            return lay.f()\n        return inner\n"
           "def g(lay):\n    return lay.f()\n\ndef h(lay):\n    return lay.other()\n\ndef k():\n    return f(1)\n")
    assert callers_of(src, "f") == {"A.m", "g", "k"}


def test_map_from_entries_callers_only_shrink():
    found = {(path.stem, owner) for path in sorted(PACKAGE.glob("*.py"))
             for owner in callers_of(path.read_text(), "map_from_entries")}
    assert found == MAP_FROM_ENTRIES_CALLERS, "per-basis map builders in the package; build from blocks instead"


# Only ``bimodules.bimodule_on`` builds a bimodule's two actions from parts
# with ``lifted_map``.  The functions below also call both, each for a reason.
BIMODULE_ON_EXCEPTIONS = {
    ("changeofrings", "heart_coextension_check"):
        "builds its H0 actions before the try that turns a failed Bimodule check into a failed "
        "verdict; inside the builder, a map that leaves the cycles would become that verdict, "
        "with no witness, instead of an error",
    ("changeofrings", "coextension_object"):
        "transfers the left S-action only and reuses the stored right pairing",
    ("bimodules", "restrict_bimodule"):
        "transfers the restricted side only and reuses the stored pairing of the other",
}


def test_only_bimodule_on_builds_bimodule_actions_from_parts():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        found |= {(path.stem, owner) for owner in callers_of(source, "lifted_map") & callers_of(source, "Bimodule")}
    assert found == {("bimodules", "bimodule_on")} | BIMODULE_ON_EXCEPTIONS.keys(), \
        "bimodule actions transferred by hand; build them with bimodules.bimodule_on"


def unbounded_caches(source: str):
    """Lines of ``lru_cache`` or ``cache`` decorators without an integer
    ``maxsize``: a bare ``@lru_cache`` or ``@cache``, ``maxsize=None``, or a
    size that is not a literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("lru_cache", "cache"):
                continue
            size = None
            if call is not None and name == "lru_cache":
                size = next((kw.value for kw in call.keywords if kw.arg == "maxsize"),
                            call.args[0] if call.args else None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                found.append(dec.lineno)
    return found


def test_unbounded_caches_are_found():
    src = ("import functools\nfrom functools import cache, lru_cache\n"
           "@lru_cache(maxsize=8)\ndef a(): pass\n@functools.lru_cache(16)\ndef b(): pass\n"
           "@lru_cache\ndef c(): pass\n@lru_cache(maxsize=None)\ndef d(): pass\n@cache\ndef e(): pass\n")
    assert unbounded_caches(src) == [7, 9, 11]


def test_package_caches_are_bounded():
    found = {path.name: unbounded_caches(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_rref_memo_has_a_literal_bound_and_keeps_to_it():
    bounds = [node.value for node in ast.parse((PACKAGE / "matrix.py").read_text()).body
              if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["RREF_MEMO_BOUND"]]
    assert len(bounds) == 1 and isinstance(bounds[0], ast.Constant) and type(bounds[0].value) is int
    # bound + 1 matrices no other test eliminates: the first is evicted
    def entries(n):
        return ((n, 7919, -104729),)

    for n in range(-1, matrix.RREF_MEMO_BOUND):
        matrix.Mat(QQ, 1, 3, entries(n)).rref()
    assert len(matrix._rref_memo) <= matrix.RREF_MEMO_BOUND
    assert (QQ, 3, entries(-1)) not in matrix._rref_memo
    assert (QQ, 3, entries(matrix.RREF_MEMO_BOUND - 1)) in matrix._rref_memo


def test_the_product_memo_keeps_to_the_same_bound():
    # bound + 1 products no other test forms: the first is evicted
    b, c = matrix.Mat(QQ, 1, 1, ((7919,),)), matrix.Mat(QQ, 1, 1, ((-104729,),))

    def key(n):
        return (QQ, 1, ((n,),), 1, b.entries, 1, c.entries)

    for n in range(-1, matrix.RREF_MEMO_BOUND):
        matrix.kron_product(matrix.Mat(QQ, 1, 1, ((n,),)), b, c)
    assert len(matrix._product_memo) <= matrix.RREF_MEMO_BOUND
    assert key(-1) not in matrix._product_memo
    assert matrix._product_memo[key(matrix.RREF_MEMO_BOUND - 1)].entries == \
        (((matrix.RREF_MEMO_BOUND - 1) * 7919 * -104729,),)


def unbounded_memos(source: str):
    """(line, name) of each module-level ``dict`` or ``OrderedDict`` (a
    display, a comprehension or a ``dict``, ``OrderedDict`` or
    ``defaultdict`` call) that the module writes to by item assignment,
    ``setdefault`` or ``update``: a memo that grows without the bound of
    ``matrix._remember``, which takes the memo it writes as an argument."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        func = node.value.func if isinstance(node.value, ast.Call) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if isinstance(node.value, (ast.Dict, ast.DictComp)) or name in ("dict", "OrderedDict", "defaultdict"):
            bound.update({t.id: node.lineno for t in targets if isinstance(t, ast.Name)})
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written.add(getattr(node.value, "id", None))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("setdefault", "update"):
            written.add(getattr(node.func.value, "id", None))
    return sorted((line, name) for name, line in bound.items() if name in written)


def test_unbounded_memos_are_found():
    src = ("import collections\nfrom collections import OrderedDict\n"
           "TABLE = {'a': 1}\n_a = {}\n_b: dict = dict()\n_c = collections.OrderedDict()\n"
           "_d: OrderedDict = OrderedDict()\n_e = {k: k for k in 'ab'}\n"
           "def f(k):\n    local = {}\n    local[k] = TABLE[k]\n    _a[k] = 1\n    _b.setdefault(k, 2)\n"
           "    _c.update({k: 3})\n    _e[k] = 4\n    return _remember(_d, k, 5)\n")
    assert unbounded_memos(src) == [(4, "_a"), (5, "_b"), (6, "_c"), (8, "_e")]


# Module-level memos that may grow without ``matrix._remember``'s bound, with
# the reason.
UNBOUNDED_MEMOS = {
    ("fields", "_gf_cache"): "interns one field per prime a run names; fields compare by identity, "
                             "so an entry may never be evicted",
}


def test_package_memos_go_through_the_bounded_helper():
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for _, name in unbounded_memos(path.read_text())}
    assert found == UNBOUNDED_MEMOS.keys()


# Definitions that neither the package nor the benchmark references by name
# stay only when tools/reachability.py allowlists them, which runs the commands,
# checks and benchmark to find what never executes; an export in ``__all__`` is
# no reference by itself.  Dunder methods are called by the interpreter, and
# cmd_* CLI commands through click's registry.


def interpreter_or_cli(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("cmd_")


def definitions(source: str):
    """The top-level functions and the methods of top-level classes, as
    (qualified name, bare name)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return found


def class_names(sources):
    """The names of the top-level classes of the sources."""
    return {node.name for source in sources for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}


def attribute_key(node: ast.Attribute, classes) -> str:
    """``Class.name`` when the attribute is read on a class of ``classes``,
    written bare or as a module attribute; the bare name otherwise."""
    owner = getattr(node.value, "id", getattr(node.value, "attr", None))
    return f"{owner}.{node.attr}" if owner in classes else node.attr


def referenced_names(package_sources, benchmark_sources):
    """Every name loaded or read as an attribute, an attribute of a package
    class as ``Class.name``, and every dotted identifier written in a string of
    the benchmark, whose tracer names what it wraps that way; a string of the
    package references nothing."""
    classes = class_names(package_sources)
    names = set()
    for source, strings in [(s, False) for s in package_sources] + [(s, True) for s in benchmark_sources]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(attribute_key(node, classes))
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def test_definitions_and_references_are_found():
    src = ("class A:\n    def used(self):\n        return self.other()\n    def __eq__(self, o):\n        pass\n"
           "    @staticmethod\n    def make():\n        pass\n"
           "class B:\n    @staticmethod\n    def make():\n        pass\n"
           "def f():\n    return A().used(), A.make(), 'x.g'\n")
    assert definitions(src) == [("A.used", "used"), ("A.__eq__", "__eq__"), ("A.make", "make"), ("B.make", "make"),
                                ("f", "f")]
    assert {"A", "used", "other", "x", "g"} <= referenced_names([], [src])
    # in the package, 'x.g' is text, as in an error message that names a method
    assert {"A", "used", "other"} <= referenced_names([src], []) and not {"x", "g"} & referenced_names([src], [])
    # A.make(...) reaches A's make, not B's
    assert "A.make" in referenced_names([src], []) and not {"make", "B.make"} & referenced_names([src], [])


def test_every_definition_is_referenced():
    benchmark = PACKAGE.parents[1] / "perfbench"
    used = referenced_names([p.read_text() for p in sorted(PACKAGE.glob("*.py"))],
                            [p.read_text() for p in sorted(benchmark.glob("*.py"))])
    unreferenced = {(path.name, qual) for path in sorted(PACKAGE.glob("*.py"))
                    for qual, name in definitions(path.read_text())
                    if name not in used and qual not in used and not interpreter_or_cli(name)}
    # an allowlist entry that runs is reported by the tool itself, which CI runs
    assert unreferenced - reachability.ALLOWLIST.keys() == set(), "definitions nothing calls; delete them"


# Every option, a defaulted parameter of a top-level function or method, is
# set by some call in the package or the benchmark; an option nothing sets is
# a second path no run takes.  The ones below stay for the tests, each for a
# reason; the list may shrink, it must not grow.
UNSET_OPTIONS = {
    ("complexes.py", "TensorLayout.map_from_entries", "check"):
        "the tests' elementwise reference, which builds unchecked maps to compare against",
    ("derived.py", "resolve_module", "generator_cap"): "tests reach the cap error with small caps",
    ("dgring.py", "DgRing.__init__", "check"):
        "the law tests build broken rings unchecked to compare the check with an elementwise reference",
    ("dgring.py", "DgIdeal.__init__", "check"): "a test builds a span that is not an ideal to see its action raise",
    ("instances.py", "trivial_action_bimodule", "pieces"): "a test builds the zero-piece case",
}


def options(source: str):
    """(qualified name, called name, parameter, position) for each defaulted
    parameter of the top-level functions and of the methods of top-level
    classes.  A constructor is called by its class name; the position counts
    the arguments a call writes, so it skips self and cls, and it is None for
    a keyword-only parameter."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(f"{node.name}.{item.name}", node.name if item.name == "__init__" else item.name, item,
                      0 if any(getattr(dec, "id", None) == "staticmethod" for dec in item.decorator_list) else 1)
                     for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            continue
        for qual, called, fn, bound in funcs:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            found += [(qual, called, arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
            found += [(qual, called, arg.arg, None)
                      for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return found


def passed_arguments(source: str, classes):
    """(called name, keyword) and (called name, position) for each argument
    of each call, by its bare name, a method's or a function's, or as
    ``Class.name`` when it is called on a class of ``classes``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = attribute_key(func, classes) if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            found |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
            found |= {(name, i) for i, arg in enumerate(node.args) if not isinstance(arg, ast.Starred)}
    return found


def test_options_and_passed_arguments_are_found():
    src = ("class A:\n    def __init__(self, x, y=1):\n        pass\n    def m(self, z=2, *, w=3):\n        pass\n"
           "    @staticmethod\n    def s(v=4):\n        pass\n"
           "class B:\n    @staticmethod\n    def s(u, v=4):\n        pass\n"
           "def f(a, b=0):\n    return A(1, 2).m(w=5), f(a=1), A.s(7), B.s(1, 2)\n")
    assert options(src) == [("A.__init__", "A", "y", 1), ("A.m", "m", "z", 0), ("A.m", "m", "w", None),
                            ("A.s", "s", "v", 0), ("B.s", "s", "v", 1), ("f", "f", "b", 1)]
    assert passed_arguments(src, set()) == {("A", 0), ("A", 1), ("m", "w"), ("f", "a"), ("s", 0), ("s", 1)}
    # B.s(1, 2) sets B's v, not A's
    assert passed_arguments(src, {"A", "B"}) == {("A", 0), ("A", 1), ("m", "w"), ("f", "a"), ("A.s", 0),
                                                 ("B.s", 0), ("B.s", 1)}


def test_every_option_is_set():
    benchmark = PACKAGE.parents[1] / "perfbench"
    classes = class_names(p.read_text() for p in sorted(PACKAGE.glob("*.py")))
    passed = set().union(*(passed_arguments(p.read_text(), classes)
                           for p in sorted(PACKAGE.glob("*.py")) + sorted(benchmark.glob("*.py"))))
    unset = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, called, param, position in options(path.read_text()):
            if not {(called, param), (called, position), (qual, param), (qual, position)} & passed:
                unset.setdefault((path.name, qual), []).append(param)
    found = {(name, qual, ", ".join(params)) for (name, qual), params in unset.items()}
    assert not found - UNSET_OPTIONS.keys(), f"options no caller sets; delete them: {sorted(found - UNSET_OPTIONS.keys())}"
    assert not UNSET_OPTIONS.keys() - found, f"stale allowlist entries; delete them: {sorted(UNSET_OPTIONS.keys() - found)}"


def tracer_targets():
    """The FUNCTIONS and METHODS lists of the benchmark's tracer, read from its
    source without importing it."""
    tree = ast.parse((PACKAGE.parents[1] / "perfbench" / "tracing.py").read_text())
    return {target.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "METHODS")}


def test_tracer_targets_resolve():
    # the tracer wraps each target by name; a rename breaks ``perfbench/run.py --trace 1``
    targets = tracer_targets()
    modules = {name: importlib.import_module(f"dgkit.{name}")
               for name in {entry[0] for entries in targets.values() for entry in entries}}
    missing = [(mod, attr) for mod, attr, _ in targets["FUNCTIONS"] if not hasattr(modules[mod], attr)]
    missing += [(mod, cls, attr) for mod, cls, attr, _ in targets["METHODS"]
                if not hasattr(getattr(modules[mod], cls, None), attr)]
    assert targets["FUNCTIONS"] and targets["METHODS"]
    assert missing == []


# Fields compare and hash by identity, which is sound only while QQ and the
# instances GF interns are the only ones: nothing outside fields.py may
# construct a field class.
FIELD_CLASSES = {"PrimeField", "RationalField"}


def field_constructions(source: str):
    """Lines calling a field class by name or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in FIELD_CLASSES
                 or getattr(node.func, "attr", None) in FIELD_CLASSES)]


def test_field_constructions_are_found():
    src = "from dgkit import fields\nF = fields.PrimeField(5)\nG = RationalField()\nH = GF(7)\n"
    assert field_constructions(src) == [2, 3]


def test_fields_are_constructed_only_in_fields_module():
    roots = [PACKAGE, PACKAGE.parents[1] / "perfbench", Path(__file__).resolve().parent]
    found = {path.name: field_constructions(path.read_text())
             for root in roots for path in sorted(root.glob("*.py")) if path != PACKAGE / "fields.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# Reports state their verdicts as ``verdict.Verdict`` fields and render through
# ``verdict.render``: no class keeps a ``notes`` list or a hand-written
# ``all_pass``, and ``as_dict`` stays only on the classes that hold no verdict.
AS_DICT_CLASSES = {"CohomologyReport", "DegreeWindow", "DerivedReport", "CheckResult"}


def class_members(source: str):
    """(class name, member name) for each method and each annotated field of
    the top-level classes."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.add((node.name, item.name))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.add((node.name, item.target.id))
    return found


def test_class_members_are_found():
    src = "class A:\n    notes: list\n    x = 1\n    def all_pass(self):\n        pass\ndef as_dict():\n    pass\n"
    assert class_members(src) == {("A", "notes"), ("A", "all_pass")}


def test_reports_render_through_one_renderer():
    members = set().union(*(class_members(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))))
    assert {cls for cls, name in members if name in ("notes", "all_pass")} == set()
    assert {cls for cls, name in members if name == "as_dict"} == AS_DICT_CLASSES
