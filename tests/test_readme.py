"""The README's python example runs against the current API."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
