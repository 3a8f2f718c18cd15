"""Every public top-level function and class in src/, and every public method and
property of a class there, has a user in src/ or perfbench/.

A name counts as used when some expression in src/hirotaverify/*.py or
perfbench/*.py reads it, as a name or an attribute, outside the definition
itself.  Imports and __all__ entries do not count: code that only its tests
call belongs with the tests.

Every function perfbench/tracer.py counts as a check body returns CheckReport rows.

No module in src/ imports random either: every row is exact, so none may
rest on a draw.  Nor does one import another's private name, or read one
as an attribute of a name it imported: what two modules share is public.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hirotaverify").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


PROPERTIES = ("property", "cached_property")


def _member(stmt) -> str | None:
    """The name a class-body statement defines as a method or property, if any."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return stmt.name
    if (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
            and getattr(stmt.value.func, "id", None) in PROPERTIES):
        return stmt.targets[0].id
    return None


def _parts(stmt) -> list:
    """(member, node) for the parts of a top-level statement: each method and property
    of a class body under its name, and the rest under None."""
    if not isinstance(stmt, ast.ClassDef):
        return [(None, stmt)]
    head = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
    return [(None, node) for node in head] + [(_member(part), part) for part in stmt.body]


def test_every_public_definition_has_a_user():
    # Definitions and reads are both placed at (file, top-level name, member name or None).
    definitions, readers = [], {}
    for path in USERS:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if path in SOURCES and owner and not owner.startswith("_"):
                definitions.append((path.name, owner, None))
            for member, part in _parts(stmt):
                if path in SOURCES and member and not member.startswith("_"):
                    definitions.append((path.name, owner, member))
                for node in ast.walk(part):
                    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                    if isinstance(node, (ast.Name, ast.Attribute)):
                        readers.setdefault(name, set()).add((path.name, owner, member))
    assert SOURCES and definitions
    # A read inside a definition, a class's methods included, is not a use of it.
    inside = lambda place, d: place[:2] == d[:2] and d[2] in (None, place[2])
    unused = [".".join(filter(None, (f"{d[0]}:{d[1]}", d[2]))) for d in definitions
              if all(inside(place, d) for place in readers.get(d[2] or d[1], ()))]
    assert unused == []


def test_no_module_imports_random():
    for path in SOURCES:
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert "random" not in imported, path.name


# NamedTuple's public API carries a leading underscore.
NAMEDTUPLE_API = {"_replace", "_asdict", "_make", "_fields"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_a_private_name():
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                private = [alias.name for alias in node.names if _private(alias.name)]
                assert private == [], f"{path.name} imports {private} from {node.module}"
                if node.level or (node.module or "").split(".")[0] == "hirotaverify":
                    imported.update(alias.asname or alias.name for alias in node.names)
        read = sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                       and node.value.id in imported and _private(node.attr)
                       and node.attr not in NAMEDTUPLE_API})
        assert read == [], f"{path.name} reads {read}"


def test_every_counted_check_returns_rows():
    # perfbench/tracer.py counts the rows each verifier function its is_check names returns,
    # so a helper named like a check fails here instead of skewing verifier.checks.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tree = ast.parse((ROOT / "src" / "hirotaverify" / "verifier.py").read_text())
    returns = {node.name: node.returns and ast.unparse(node.returns) for node in tree.body
               if isinstance(node, ast.FunctionDef) and tracer.is_check(node.name)}
    assert "ernst_residual_numeric" in returns and "check_identity" in returns
    wrong = {name: kind for name, kind in returns.items()
             if kind not in ("CheckReport", "list[CheckReport]")}
    assert wrong == {}
