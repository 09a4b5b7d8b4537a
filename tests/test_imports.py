"""Every module of the package uses each name it imports, imports each name from
the module that defines it and no name private to that module, keeps
annotations that resolve, and defines no public function or class that only
tests use; every function reads each of its parameters whose name does not
start with ``_``; the package root imports nothing; ``errors`` alone defines exception
types, its docstring names each of them, and the package raises each of them; no
handler outside ``errors`` re-raises its exception's text behind a prefix, which
``errors.naming`` does; no module outside ``blas`` starts threads or counts
CPUs, which ``blas.run_threads`` does; and only ``container.write_atomic`` and
the training log write files."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import recsynvc

PACKAGE = Path(recsynvc.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text("utf-8")) == []


def _top_level_names(source: str) -> set[str]:
    """Names a module binds itself at its top level: functions, classes, assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _borrowed_imports(source: str, defined) -> list[str]:
    """``from .mod import name`` lines whose ``name`` is not in ``defined(mod)``."""
    return [f"line {node.lineno}: {alias.name} from .{node.module}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names if alias.name not in defined(node.module)]


def test_scan_finds_a_name_imported_through_another_module():
    defined = {"a": {"f"}, "b": {"g"}}.__getitem__
    source = "from .a import f\nfrom .b import f, g\n"
    assert _borrowed_imports(source, defined) == ["line 2: f from .b"]


def test_each_name_is_imported_from_its_defining_module():
    defined = {p.stem: _top_level_names(p.read_text("utf-8")) for p in MODULES}.__getitem__
    borrowed = {path.name: _borrowed_imports(path.read_text("utf-8"), defined)
                for path in MODULES}
    assert {name: lines for name, lines in borrowed.items() if lines} == {}


def _private_imports(source: str) -> list[str]:
    """``from .mod import _name`` lines: a name private to ``mod`` used outside it."""
    return [f"line {node.lineno}: {alias.name} from .{node.module or ''}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names if alias.name.startswith("_")]


def test_scan_finds_a_private_import():
    source = "from .a import f\nfrom .b import _g, h\nfrom . import _c\n"
    assert _private_imports(source) == ["line 2: _g from .b", "line 3: _c from ."]


def test_no_module_imports_a_private_name_of_another():
    private = {path.name: _private_imports(path.read_text("utf-8")) for path in MODULES}
    assert {name: lines for name, lines in private.items() if lines} == {}


def _unread_parameters(source: str) -> list[str]:
    """Parameters, not named ``_...``, that their function (or lambda) never reads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg] if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"line {node.lineno}: {getattr(node, 'name', 'lambda')}({name})"
                   for name in params if name not in read and not name.startswith("_")]
    return unread


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *args, c, _d, **kw):\n    b = a\n    return kw\n"
              "g = lambda x, y: x\n")
    assert _unread_parameters(source) == ["line 1: f(b)", "line 1: f(args)", "line 1: f(c)",
                                          "line 4: lambda(y)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert _unread_parameters(path.read_text("utf-8")) == []


def _defined(module):
    """``(qualified name, object)`` of each function, class and method ``module`` defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_annotations_resolve(path):
    module = importlib.import_module(f"recsynvc.{path.stem}")
    unresolved = []
    for name, obj in _defined(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []


def _referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)  # a binding the benchmark's tracer wraps by name
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    """The pipeline, the demos or the benchmark use each public function and class."""
    callers = MODULES + sorted((ROOT / "demos").glob("*.py"))
    callers += sorted((ROOT / "perfbench").rglob("*.py"))
    referenced = _referenced_names(callers)
    unused = [f"{path.stem}.{node.name}" for path in MODULES
              for node in ast.parse(path.read_text("utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in referenced]
    assert unused == []


def test_package_root_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text("utf-8"))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_feature_files_load_without_scipy():
    """Adapters that only read or write ``.s3vc`` files, and the correlation study,
    start without loading scipy or any pipeline module; the CLI loads every module
    but the synthetic corpus, and no scipy either (``audioio`` imports it to
    resample)."""
    loads = {"recsynvc.featureio, recsynvc.types":
             ["recsynvc", "recsynvc.container", "recsynvc.errors", "recsynvc.featureio",
              "recsynvc.types"],
             "recsynvc.benchmark": ["recsynvc", "recsynvc.benchmark", "recsynvc.errors"],
             "recsynvc.cli": ["recsynvc"] + [f"recsynvc.{path.stem}" for path in MODULES
                                             if path.stem != "synthetic"]}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    for modules, expected in loads.items():
        code = (f"import sys, {modules}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'recsynvc'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.splitlines() == ["[]", repr(expected)], modules


def _exception_classes(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and issubclass(obj, BaseException)]


def test_every_error_type_is_raised():
    """Each class in ``errors`` is raised or built by the package, or passed to
    ``naming`` to build: a new cause at an input boundary gets its own message,
    not its own class."""
    made = set()
    for path in MODULES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                made.add(node.func.id)
                if node.func.id == "naming" and isinstance(node.args[1], ast.Name):
                    made.add(node.args[1].id)
            elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Name):
                made.add(node.exc.id)
    errors = importlib.import_module("recsynvc.errors")
    assert sorted(set(_exception_classes(errors)) - made) == []


def test_errors_docstring_names_exactly_its_classes():
    """The rule in ``errors``' docstring lists every type the module defines, and no other."""
    errors = importlib.import_module("recsynvc.errors")
    named = set(re.findall(r"``(\w+Error)``", errors.__doc__))
    assert sorted(named) == sorted(_exception_classes(errors))


def test_only_errors_defines_exception_types():
    others = {path.stem: _exception_classes(importlib.import_module(f"recsynvc.{path.stem}"))
              for path in MODULES if path.name != "errors.py"}
    assert {stem: names for stem, names in others.items() if names} == {}


def _prefixed_reraises(source: str) -> list[str]:
    """``except ... as exc`` handlers that raise ``from None`` a message ending in
    ``: {exc}``: the re-raise that ``errors.naming`` owns."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        for node in ast.walk(handler):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.cause, ast.Constant) and node.cause.value is None
                    and node.exc.args and isinstance(node.exc.args[0], ast.JoinedStr)):
                continue
            *head, last = node.exc.args[0].values
            if (isinstance(last, ast.FormattedValue) and isinstance(last.value, ast.Name)
                    and last.value.id == handler.name and head
                    and isinstance(head[-1], ast.Constant) and head[-1].value.endswith(": ")):
                found.append(f"line {node.lineno}")
    return found


def test_scan_finds_a_prefixed_reraise():
    source = ("try:\n    f()\nexcept ValueError as exc:\n"
              "    raise E(f'{p}: {exc}') from None\n"
              "try:\n    f()\nexcept ValueError as exc:\n"
              "    raise E(f'{p}: {exc}') from exc\n"
              "try:\n    f()\nexcept ValueError as exc:\n"
              "    raise E(f'{p} ({exc})') from None\n"
              "try:\n    f()\nexcept ValueError as err:\n"
              "    raise E(f'bad: {err}', s) from None\n")
    assert _prefixed_reraises(source) == ["line 4", "line 16"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=[p.name for p in MODULES if p.name != "errors.py"])
def test_no_hand_written_prefixed_reraise(path):
    assert _prefixed_reraises(path.read_text("utf-8")) == []


_THREAD_STARTERS = {"ThreadPoolExecutor", "threading.Thread", "sched_getaffinity"}


def _thread_starters(source: str) -> list[str]:
    """Names by which a module starts threads or counts its CPUs."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr, ast.unparse(node)]
        elif isinstance(node, ast.ImportFrom):
            names = [n for a in node.names for n in (a.name, f"{node.module}.{a.name}")]
        else:
            continue
        found.update((node.lineno, name) for name in names if name in _THREAD_STARTERS)
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_scan_finds_a_thread_starter():
    source = ("import os, threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
              "n = len(os.sched_getaffinity(0))\nt = threading.Thread(target=f)\n"
              "from threading import Lock, Thread\nlock = threading.Lock()\n")
    assert _thread_starters(source) == ["line 2: ThreadPoolExecutor",
                                        "line 3: sched_getaffinity",
                                        "line 4: threading.Thread", "line 5: threading.Thread"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "blas.py"],
                         ids=[p.name for p in MODULES if p.name != "blas.py"])
def test_only_blas_starts_threads(path):
    assert _thread_starters(path.read_text("utf-8")) == []


# (module, function) pairs that may write a file: the one atomic writer, and
# ``train``'s ``--log-file``, whose lines go out as the steps run
_FILE_WRITERS = {("container.py", "write_atomic"), ("trainer.py", "train")}


def _file_writes(source: str) -> list[tuple[str, str]]:
    """``(function, "line N: call")`` of each call that writes a file: ``open``
    with a writing (or a computed) mode, ``Path.write_text`` and ``Path.write_bytes``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                # the mode is ``open``'s second argument and ``Path.open``'s first
                position = 1 if isinstance(func, ast.Name) else 0
                modes = [k.value for k in child.keywords if k.arg == "mode"]
                modes += child.args[position:position + 1]
                writes = name in ("write_text", "write_bytes") or name == "open" and any(
                    not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                    or set(m.value) & set("wax+") for m in modes)
                if writes:
                    found.append((function, f"line {child.lineno}: {name}"))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_a_file_write():
    source = ("def f(p):\n    open(p).read()\n    open(p, 'rb')\n    open(p, 'w')\n"
              "    p.write_text('x')\n"
              "def g(p, mode):\n    p.open('a')\n    open(p, mode=mode)\n"
              "    p.write_bytes(b'')\n    p.open()\n    open(p, mode='r+')\n"
              "open(p, 'x')\n")
    assert _file_writes(source) == [
        ("f", "line 4: open"), ("f", "line 5: write_text"), ("g", "line 7: open"),
        ("g", "line 8: open"), ("g", "line 9: write_bytes"), ("g", "line 11: open"),
        ("<module>", "line 12: open")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_atomic_writer_and_the_training_log_write_files(path):
    writes = _file_writes(path.read_text("utf-8"))
    assert [(function, call) for function, call in writes
            if (path.name, function) not in _FILE_WRITERS] == []
