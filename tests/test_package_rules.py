"""Rules every module of the package keeps, read from its syntax tree.

An assert disappears under python -O, so no invariant may rest on one;
and every failure must end as a typed McgError, so a class built on a
builtin exception must also derive from McgError, and no raise may
name a builtin exception class.
"""

import ast
import builtins
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def package_rule_findings():
    """One line per assert, untyped exception class or raise of a builtin
    under src/mcgcalc, as path:line: finding."""
    builtin_exceptions = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    found = []
    for path in sorted((ROOT / "src" / "mcgcalc").rglob("*.py")):
        path = path.relative_to(ROOT)
        for node in ast.walk(ast.parse((ROOT / path).read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path}:{node.lineno}: assert statement")
            elif isinstance(node, ast.ClassDef) and node.name != "McgError":
                bases = {ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases}
                if bases & builtin_exceptions and "McgError" not in bases:
                    found.append(f"{path}:{node.lineno}: class {node.name} "
                                 "derives from a builtin exception but not McgError")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc).rsplit(".", 1)[-1]
                if name in builtin_exceptions:
                    found.append(f"{path}:{node.lineno}: raise of the builtin {name}")
    return found


def test_no_assert_and_no_exception_outside_mcg_error():
    assert (ROOT / "src" / "mcgcalc" / "__init__.py").is_file()  # the check reads the package
    found = package_rule_findings()
    assert not found, "\n".join(found)


def test_the_rules_see_each_kind_of_finding(tmp_path, monkeypatch):
    # a module that breaks each rule once, in a package tree of its own
    package = tmp_path / "src" / "mcgcalc"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(
        "class McgError(Exception):\n    pass\n"
        "class Typed(McgError, ValueError):\n    pass\n"
        "class Untyped(errors.KeyError):\n    pass\n"
        "def f(x):\n    assert x\n    raise ValueError('no')\n"
        "def g():\n    raise Typed('yes')\n"
    )
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert package_rule_findings() == [
        "src/mcgcalc/bad.py:5: class Untyped derives from a builtin exception but not McgError",
        "src/mcgcalc/bad.py:8: assert statement",
        "src/mcgcalc/bad.py:9: raise of the builtin ValueError",
    ]
