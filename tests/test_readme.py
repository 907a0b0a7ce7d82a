"""The README's Library section: its block run as written, and the
package surface it names."""

import ast
import builtins
import re
import sys
from pathlib import Path

import densemodal

README = Path(__file__).resolve().parent.parent / "README.md"

# Solver internals: each is an attribute of its module and none of the
# package.
INTERNALS = (
    "ProfileFrame",
    "SubformulaIndex",
    "build_index",
    "fixpoint",
    "frame_model",
    "initial_frame",
    "profiles",
    "refine_frame",
    "saturations",
    "saturation_family",
    "is_saturation_of",
    "initial_windows",
    "continuations",
    "Trace",
    "ChainWitness",
    "extract_model",
)


def library_section() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("\n## ", 1)[0]


def library_block() -> str:
    return library_section().split("```python\n", 1)[1].split("```", 1)[0]


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


def library_names() -> set[str]:
    """The names the Library section imports, and those of its code spans
    that are a dotted name, alone, called or assigned: `kde_sat`,
    `kde_solve(phi)`, `KripkeModel.from_masks(...)`, `FREE_BIT_LIMIT = 12`."""
    section = library_section()
    names = {
        name.strip()
        for line in re.findall(r"^from densemodal import (.+)$", section, re.M)
        for name in line.split(",")
    }
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        named = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\)|\s*=.*)?", span, re.S)
        if named:
            names.add(named.group(1))
    return names


def test_library_names_resolve_on_the_package():
    # A name resolves on the package, or as a member of a class the
    # section names (`witness()` of KdeResult, `ra` of KripkeModel).
    # Standard-library names (`ValueError`, `json.loads`) are not the
    # package's to provide.
    def lookup(owner, path):
        parts = path.split(".")
        if parts[0] == "densemodal":
            owner, parts = densemodal, parts[1:]
        for part in parts:
            owner = getattr(owner, part, None)
        return owner

    names = library_names()
    assert {"KripkeModel", "KdeResult", "sat_set", "verify", "witness"} <= names
    classes = [c for c in (lookup(densemodal, n) for n in names) if isinstance(c, type)]
    unresolved = [
        name
        for name in sorted(names)
        if name.split(".")[0] not in sys.stdlib_module_names
        and not hasattr(builtins, name.split(".")[0])
        and all(lookup(owner, name) is None for owner in [densemodal, *classes])
    ]
    assert unresolved == []


def test_package_exposes_no_solver_internals():
    exposed = [name for name in INTERNALS if hasattr(densemodal, name)]
    assert exposed == []
    modules = (densemodal.kde, densemodal.kdeab, densemodal.saturation, densemodal.windows)
    homeless = [n for n in INTERNALS if not any(hasattr(m, n) for m in modules)]
    assert homeless == []
