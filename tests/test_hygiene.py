"""Source hygiene: one definition per constant, no unused imports."""

import ast
from collections import defaultdict
from pathlib import Path

import fedshield

SOURCES = sorted(Path(fedshield.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_constant_defined_in_two_modules():
    defined = defaultdict(list)
    for path in SOURCES:
        for node in _tree(path).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    defined[target.id].append(path.name)
    assert {name: modules for name, modules in defined.items()
            if len(modules) > 1} == {}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(_tree(path))
              for path in SOURCES if path.name != "__init__.py"}
    assert {module: names for module, names in unused.items() if names} == {}


def test_package_exports_exactly_what_it_imports():
    init = Path(fedshield.__file__)
    imported = [alias.asname or alias.name for node in _tree(init).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert sorted(fedshield.__all__) == sorted(imported)
