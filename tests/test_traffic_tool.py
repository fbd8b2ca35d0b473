"""tools/traffic.py's collector: the lines it reports as run are the lines
that ran.  The workloads themselves are left to the tool's own runs."""

import importlib.util
import sys
from pathlib import Path

from pdakit import parse_pda

TRAFFIC = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"


def _tool():
    spec = importlib.util.spec_from_file_location("traffic", TRAFFIC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_collector_sees_parse_pda_run_and_pda_from_json_not():
    traffic = _tool()
    path = traffic.PACKAGE / "pda.py"
    statements = traffic.function_statements(path)
    text = path.read_text().splitlines()
    previous = sys.gettrace()
    with traffic.LineCollector(traffic.PACKAGE) as hits:
        parse_pda("2 2 1 1\n* 1\n1 *\n")
    assert sys.gettrace() is previous
    ran = hits.lines[str(path.resolve())]
    parse = {line for line, fn in statements.items() if fn == "parse_pda"}
    from_json = {line for line, fn in statements.items() if fn == "pda_from_json"}
    assert parse and from_json
    # on a well-formed text every statement of parse_pda runs but its raises
    assert parse - ran == {line for line in parse if text[line - 1].lstrip().startswith("raise")}
    assert not from_json & ran
    assert all(Path(name).is_relative_to(traffic.PACKAGE) for name in hits.lines)
