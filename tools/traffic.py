"""Which statements of src/pdakit the benchmark's traffic runs.

Runs each perfbench workload's set-up and one untraced pass (seed 1) under
sys.settrace, in this process, and writes JSON: per src/pdakit module, the
statement lines inside function bodies that no pass executed, with their
text, and each workload's checks attempted and failed.  A simplicity claim
about code the benchmark does or does not run can cite this file.

    python3 tools/traffic.py --out traffic.json

Standard library only.  perfbench's workloads, oracle and tracer are imported
as they are.  Tracing every line makes a pass many times slower than the
benchmark's own.
"""

import argparse
import ast
import json
import os
import platform
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "pdakit"
SEED = 1


class LineCollector:
    """While active, the lines executed in files under root: lines[path] is
    the set of line numbers that had a line event.  Restores the previous
    trace function on exit."""

    def __init__(self, root: Path):
        self.root = os.path.join(Path(root).resolve(), "")  # a trailing separator
        self.lines: dict[str, set[int]] = defaultdict(set)

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(self.root):
            return None  # no line events for frames outside root
        seen = self.lines[path]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    def __enter__(self) -> "LineCollector":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def function_statements(path: Path) -> dict[int, str]:
    """Line -> qualified name of the innermost function, for every statement
    in a function body that starts on that line and compiles to bytecode
    (so no docstring, and nothing a line event could never report)."""
    tree = ast.parse(Path(path).read_text(), str(path))
    code_lines, todo = set(), [compile(tree, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    out: dict[int, str] = {}

    def visit(node, name: str | None, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if name is not None and isinstance(child, ast.stmt) and child.lineno in code_lines:
                out.setdefault(child.lineno, name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, None, prefix + child.name + ".")
            else:
                visit(child, name, prefix)

    visit(tree, None, "")
    return out


def unexecuted(hits: LineCollector) -> dict:
    """Per module of the package: its function-body statement count and the
    statements that no collected run executed, in line order."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        statements = function_statements(path)
        ran = hits.lines.get(str(path.resolve()), set())
        text = path.read_text().splitlines()
        out[path.name] = {
            "statements": len(statements),
            "unexecuted": [{"line": line, "function": fn, "text": text[line - 1].strip()}
                           for line, fn in sorted(statements.items()) if line not in ran],
        }
    return out


def run_traffic() -> dict:
    """Each workload's set-up and one untraced pass under one collector."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    from oracle import Checker, load_reference
    from tracing import Tracer
    from workloads import WORKLOADS, Stats

    reference, checks = load_reference(), {}
    with LineCollector(PACKAGE) as hits, tempfile.TemporaryDirectory() as workdir:
        for name, wl in WORKLOADS.items():
            chk = Checker()
            state = wl.setup(SEED, reference, workdir, Stats(), chk)
            wl.run_pass(state, Tracer(False), chk, Stats())
            checks[name] = {"attempted": chk.attempted, "failed": chk.failed}
    return {"python": platform.python_version(), "seed": SEED, "workloads": checks,
            "modules": unexecuted(hits)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="write the JSON here")
    args = ap.parse_args(argv)
    report = run_traffic()
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for name, mod in report["modules"].items():
        print(f"{name}: {len(mod['unexecuted'])} of {mod['statements']} statement lines not run")
    for name, chk in report["workloads"].items():
        print(f"{name}: {chk['failed']} of {chk['attempted']} checks failed")
    return 1 if any(chk["failed"] for chk in report["workloads"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
