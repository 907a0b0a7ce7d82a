"""The README's Library block, run as written."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_block_prints_what_it_claims():
    # Each line runs; where its comment is a Python literal, the line's
    # value must equal it.
    namespace: dict = {}
    claimed = []
    for line in library_block().splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if code.startswith(("from ", "import ")):
            exec(code, namespace)
            continue
        if not code:
            continue
        got = eval(code, namespace)
        try:
            want = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert got == want, line
        claimed.append(want)
    assert claimed == [
        True,
        {"edges": 12, "iterations": 0, "profiles": 4},
        {"max_depth": 1, "saturations": 1, "windows": 3},
    ]
