"""The package keeps only what its program uses.

``apsim/__init__.py`` imports nothing, every other module declares its
exports in ``__all__``, and each exported name is used by the program:
by another module of the package, by a demo, or by the benchmark, whose
tracer names its entry points in strings such as
"SpectrumCache.from_pulse".  A name only the tests use is not exported.
Importing the transport or fit module loads only the modules it runs.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "apsim"
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "bench").glob("*.py")
)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exports(path: Path) -> list[str]:
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _used_names(path: Path) -> set[str]:
    """Identifiers a file refers to: names, attributes, imported names and
    the parts of strings that are dotted identifiers."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                names.update(parts)
    return names


def test_package_init_imports_nothing():
    tree = _tree(SRC / "__init__.py")
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports


def test_every_exported_name_is_used_by_the_program():
    used = {path: _used_names(path) for path in PROGRAM}
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert [p.stem for p in modules if not _exports(p)] == []
    unused = []
    for path in modules:
        module = importlib.import_module(f"apsim.{path.stem}")
        for name in _exports(path):
            assert hasattr(module, name), f"apsim.{path.stem} exports missing {name}"
            if not any(name in names for other, names in used.items() if other != path):
                unused.append(f"apsim.{path.stem}.{name}")
    assert unused == []


def _apsim_modules_loaded_by(module: str) -> set[str]:
    """The apsim modules that importing `module` loads in a fresh interpreter."""
    script = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import {module}; "
              "import json; print(json.dumps([m for m in sys.modules if m.startswith('apsim')]))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


def test_transport_and_fit_load_only_their_modules():
    # a transport run needs neither the thermal model nor addressing, and a
    # fit neither transport nor addressing
    transport = _apsim_modules_loaded_by("apsim.transport")
    assert transport & {"apsim.addressing", "apsim.thermal"} == set()
    fit = _apsim_modules_loaded_by("apsim.fit")
    assert fit & {"apsim.transport", "apsim.addressing"} == set()
