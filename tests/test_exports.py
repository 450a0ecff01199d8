"""The package's public names, the names the benchmark's tracer patches,
and the names each module imports."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np

import r2xsim


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from r2xsim import *", namespace)
    assert sorted(set(r2xsim.__all__)) == sorted(r2xsim.__all__)
    for name in r2xsim.__all__:
        assert namespace[name] is getattr(r2xsim, name)


def test_traced_functions_resolve():
    """Every function the benchmark's tracer patches by name exists, so a
    change that drops or renames one fails here, not only in a traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS and tracing.COUNTS
    for name, module, attr in tracing.SPANS + tracing.COUNTS:
        assert module == "r2xsim" or module.startswith("r2xsim."), name
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{name}: {module}.{attr}"


def public_names():
    """The package's exports, and every public function and class that an
    ``r2xsim.*`` module defines at its top level."""
    names = set(r2xsim.__all__)
    for info in pkgutil.iter_modules(r2xsim.__path__):
        module = importlib.import_module(f"r2xsim.{info.name}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__
            ):
                names.add(name)
    return sorted(names)


def class_bodies():
    """``(module.Class, node)`` for every class body of an ``r2xsim.*``
    module."""
    for path in sorted(Path(r2xsim.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                yield f"{path.stem}.{node.name}", node


def public_members():
    """``(class, name)`` for every public method and property that a class
    body of an ``r2xsim.*`` module defines."""
    return [
        (owner, item.name)
        for owner, node in class_bodies()
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")
    ]


def class_attributes():
    """``{class: names}``: the methods, properties and fields each class body
    of an ``r2xsim.*`` module defines, and the attributes its methods set on
    ``self``."""
    attributes = {}
    for owner, node in class_bodies():
        names = attributes[owner] = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(item.name)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                names.add(item.target.id)
            elif isinstance(item, ast.Assign):
                names.update(t.id for t in item.targets if isinstance(t, ast.Name))
        names.update(
            n.attr
            for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and isinstance(n.value, ast.Name) and n.value.id == "self"
        )
    return attributes


def ambiguous_members():
    """The public members whose ``.name`` may be a read of something else:
    another class of the package has an attribute of that name, or a numpy
    array, dict, list, tuple or str has."""
    attributes = class_attributes()
    return {
        f"{owner}.{name}"
        for owner, name in public_members()
        if any(name in names for other, names in attributes.items() if other != owner)
        or any(hasattr(kind, name) for kind in (np.ndarray, dict, list, tuple, str))
    }


# For each ambiguous member, a file outside the tests and a pattern that
# matches only where that file reads this member.
AMBIGUOUS_READERS = {
    "orchestrator.IntentEngine.propose": ("src/r2xsim/orchestrator.py", r"\bengine\.propose\("),
    "orchestrator.RuleIntentEngine.propose": ("src/r2xsim/scenarios.py", r"correct_loop\(RuleIntentEngine\(\)"),
    "orchestrator.HumanReservations.at": ("src/r2xsim/orchestrator.py", r"= self\.at\(parked, frame\)"),
    "planner.SpaceTimePath.at": ("src/r2xsim/orchestrator.py", r"solo_path\.at\("),
    "orchestrator.WarehouseSimulation.run": ("src/r2xsim/scenarios.py", r"WarehouseSimulation\(.*\)\.run\(\)"),
    "radio.HarqStream.run": ("src/r2xsim/radio.py", r"\bharq\.run\("),
    "radio.PathGainMap.height": ("src/r2xsim/orchestrator.py", r"\bgain_map\.height\b"),
    "radio.PathGainMap.width": ("src/r2xsim/orchestrator.py", r"\bgain_map\.width\b"),
    "schema._Checker.seeds": ("src/r2xsim/cli.py", r"\bck\.seeds\("),
    "schema._Checker.cell": ("src/r2xsim/scenarios.py", r"\bck\.cell\("),
    "schema._Checker.items": ("src/r2xsim/scenarios.py", r"\bck\.items\("),
    "sensing.Codebook.size": ("src/r2xsim/sensing.py", r"\bcodebook\.size\b"),
}


def test_every_export_has_a_reader_outside_the_tests():
    """Each export and each public module-level function and class is read
    by the package, a demo, a tool or the benchmark, not only by tests: it
    appears as a word in one of their Python files, where the package's
    ``__init__.py`` and the name's own ``def`` or ``class`` line do not
    count. Each public method and property of a class body appears there
    as ``.name``; one whose ``.name`` may read something else instead has
    its reader listed in ``AMBIGUOUS_READERS``."""
    root = Path(__file__).resolve().parents[1]
    texts = []
    for folder in ("src/r2xsim", "demos", "tools", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            if path != root / "src/r2xsim/__init__.py":
                texts.append((folder == "src/r2xsim", path.read_text()))

    def read(word, own):
        return any(
            word.search(line) and not (in_src and own.match(line))
            for in_src, text in texts
            for line in text.splitlines()
        )

    unread = []
    for name in public_names():
        if not read(re.compile(rf"\b{re.escape(name)}\b"), re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")):
            unread.append(name)
    members = public_members()
    assert len(members) > 40
    for owner, name in members:
        if not read(re.compile(rf"\.{re.escape(name)}\b"), re.compile(rf"^\s*def\s+{re.escape(name)}\b")):
            unread.append(f"{owner}.{name}")
    assert sorted(AMBIGUOUS_READERS) == sorted(ambiguous_members())
    for member, (file, pattern) in AMBIGUOUS_READERS.items():
        if not re.search(pattern, (root / file).read_text()):
            unread.append(f"{member} ({file}: {pattern})")
    assert unread == []


def read_names(tree):
    """The names a module reads: loaded names, the entries of ``__all__``
    and the names in string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names.update(e.value for e in node.value.elts)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def test_every_import_is_read():
    """Each module of the package, the tools and the demos reads every name
    it imports."""
    root = Path(__file__).resolve().parents[1]
    unread = []
    for folder in ("src/r2xsim", "tools", "demos"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            read = read_names(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [a.asname or a.name for a in node.names if a.name != "*"]
                else:
                    continue
                unread += [f"{path.relative_to(root)}: {name}" for name in bound if name not in read]
    assert unread == []
