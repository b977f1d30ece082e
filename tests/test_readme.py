"""The README's python example runs against the current API, and its
module table names nothing that is gone."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_example_values():
    # every line whose comment opens with a python literal must evaluate
    # to that literal, e.g. ``report.ok  # True: ...``
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            want = ast.literal_eval(comment.split(":")[0].strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == want, line
        checked.append(want)
    assert checked == [[1, 0, 0, 4, 4, 1], True]


def _names_in(paths) -> set[str]:
    """Every name a module defines or uses: definitions, arguments, imports,
    attributes and plain names."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                names.add(node.asname)
    return names - {None}


def test_library_layout_names_exist():
    # every backticked identifier (dotted or not) in the module table is a
    # module of the package, a name defined or used in the package or the
    # tests, or a standard-library module; all-caps output words such as
    # SKIP and tokens that are not identifiers are not checked
    text = README.read_text(encoding="utf-8")
    table = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    tokens = re.findall(r"`([^`]+)`", table)
    package = ROOT / "src" / "orbitcoh"
    modules = {"orbitcoh"} | {path.stem for path in package.glob("*.py")}
    known = (modules | set(sys.stdlib_module_names)
             | _names_in([*package.glob("*.py"), *(ROOT / "tests").glob("*.py")]))
    identifiers = [t for t in tokens if all(part.isidentifier() for part in t.split("."))
                   and not t.isupper()]
    assert len(identifiers) > 50
    missing = [t for t in identifiers if not set(t.split(".")) <= known]
    assert missing == []
