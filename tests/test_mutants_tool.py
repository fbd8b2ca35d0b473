"""tools/mutants.py's table matches the source: each mutant's snippet
occurs exactly once in its file under src/, its replacement differs, and
its subset names test files that exist.  The mutants themselves are not run
here; `python3 tools/mutants.py --out FILE` runs them."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


def test_every_snippet_occurs_once_in_src():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.MUTANTS
    names = [m["name"] for m in tool.MUTANTS]
    assert len(set(names)) == len(names)
    for m in tool.MUTANTS:
        text = (ROOT / "src" / m["file"]).read_text()
        assert text.count(m["snippet"]) == 1, m["name"]
        assert m["replacement"] != m["snippet"] and m["breaks"], m["name"]
        for test in m["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), (m["name"], test)
