"""tools/bench_pr.py reaches pdakit through its public names only: every
name it imports from pdakit, in its own code or in the code strings it runs
in fresh processes (every *_CODE: RUNG_CODE, ORIENTATIONS_CODE, PRODUCT_CODE
and SIM_CODE among them), is in pdakit.__all__;
each of those code strings compiles; each rung prints its seconds both
raw and in reference speed; and every process it starts runs uncompiled."""

import ast
import importlib.util
from pathlib import Path

import pdakit

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench_pr.py"


def _sources() -> dict:
    """The script's own text and each module-level *_CODE string, by name."""
    text = BENCH.read_text()
    out = {"bench_pr.py": text}
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.endswith("_CODE"):
                    out[target.id] = node.value.value
    return out


def _pdakit_imports(source: str) -> list:
    """(module, name) of every import of pdakit or a submodule of it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pdakit":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "pdakit"]
    return out


def test_bench_pr_imports_only_public_names():
    sources = _sources()
    assert {"RUNG_CODE", "PRODUCT_CODE", "SIM_CODE"} <= set(sources)
    public = set(pdakit.__all__)
    for where, source in sources.items():
        for module, name in _pdakit_imports(source):
            assert module == "pdakit" and name in public, (where, module, name)
    assert any(_pdakit_imports(source) for source in sources.values())


def test_every_rung_script_compiles():
    """A slip in a rung script fails here, not in a bench run."""
    scripts = {name: src for name, src in _sources().items() if name.endswith("_CODE")}
    assert {"RUNG_CODE", "PRODUCT_CODE", "SIM_CODE"} <= set(scripts)
    for name, src in scripts.items():
        compile(src, name, "exec")


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench_pr", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_every_process_runs_uncompiled(tmp_path):
    """Each side runs from a copy of its src and perfbench made without any
    __pycache__, and no process writes a .pyc or moves the cache prefix: pdakit
    and perfbench compile from source in every process, the standard
    library's .pyc are read as usual."""
    bench = _bench_module()
    tree = tmp_path / "tree"
    for sub in ("src/pdakit", "perfbench"):
        (tree / sub / "__pycache__").mkdir(parents=True)
        (tree / sub / "__pycache__" / "stale.pyc").write_bytes(b"stale")
        (tree / sub / "mod.py").write_text("x = 1\n")
    copy = bench.fresh_copy(tree, tmp_path / "copy")
    assert sorted(f.relative_to(copy).as_posix() for f in copy.rglob("*")) == [
        "perfbench", "perfbench/mod.py", "src", "src/pdakit", "src/pdakit/mod.py"]

    copy = bench.fresh_copy(bench.ROOT, tmp_path / "side")
    code = ("import json, sys, pdakit\n"
            "print(json.dumps([sys.dont_write_bytecode, sys.pycache_prefix, pdakit.__file__]))")
    no_write, prefix, where = bench.rung(copy, code, None)
    assert no_write is True and prefix is None
    assert Path(where).is_relative_to(copy)
    assert not any(copy.rglob("__pycache__"))
    assert "uncompiled" in bench.BYTECODE


def test_every_rung_prints_reference_seconds_beside_raw():
    """Each NAME_s field a rung prints has a NAME_ref_s float beside it: the
    same calls timed under the tree's SpeedClock.  The cheapest ladder rung,
    the orientations rung, the product rung and the sim rung are run on this
    tree."""
    bench = _bench_module()
    for name in ("pg_q2_k5_m2_t1", "orientations", "product", "sim"):
        code, arg = bench.RUNGS[name]
        out = bench.rung(bench.ROOT, code, arg)
        raw = [key for key in out if key.endswith("_s") and not key.endswith("_ref_s")]
        assert raw, name
        for key in raw:
            ref = out[key[:-2] + "_ref_s"]
            assert type(ref) is float and ref >= 0, (name, key, ref)
