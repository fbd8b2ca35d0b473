"""The three benchmark workloads: construct, simulate and sweep.

Each workload has a set-up, which prepares its inputs from the seed, and a
pass, a fixed list of operations that the harness repeats until the run's
time is up.  Every call into pdakit goes through the tracer, so a traced pass
times each call by module; untraced, the tracer only forwards the call.
"""

import io
import random
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from pdakit import (ConstructionSpec, FieldSpec, FileLibrary, check_conditions,
                    closed_form_row, complete_matching, construct_pda, decode,
                    deliver, direct_product, enumerate_subspaces, from_reference,
                    orientations, parse_pda, place, triple_to_pda, verify_scheme)
from pdakit.cli import main as cli_main
from pdakit.constructions import build_triple
from pdakit.designs import (as_t_design, certify_configuration, certify_t_design,
                            complete_design)

from oracle import (check_array, check_decoded, check_exit, check_report,
                    digest, product_law, spec_key)
from tracing import Tracer


@dataclass
class Stats:
    """Samples and counts from one kind of pass: untraced or traced."""

    # Times are raw (start, end) perf_counter intervals, which the harness
    # turns into reference-speed seconds once the run's calibrations are in.
    # construct_pda intervals, per array (spec key); untraced passes and set-up
    array_latency: dict = field(default_factory=lambda: defaultdict(list))
    arrays: int = 0            # arrays built and checked (products included)
    products: int = 0          # direct products built and checked
    demands: int = 0           # demands verified through verify_scheme
    demand_failures: int = 0   # demands that verify_scheme reported failing
    verify_spans: list = field(default_factory=list)  # verify_scheme calls
    users_decoded: int = 0     # users decoded through place/deliver/decode
    decode_spans: list = field(default_factory=list)  # place, deliver and decode


def timed(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the raw (start, end) interval of the call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, (t0, time.perf_counter())


# --- the construction pipeline, traced stage by stage ----------------------


def _probe_inputs(tr: Tracer, spec: ConstructionSpec):
    """Time, as separate calls, the input work that build_triple does inside."""
    if spec.family == "pg":
        fld = FieldSpec.for_order(spec.q)
        for dim in (spec.t, spec.m, spec.m + spec.t):
            subs = tr.call("subspaces.enumerate_subspaces", enumerate_subspaces,
                           fld, spec.k, dim)
            tr.count("subspaces.enumerate_subspaces.count", len(subs))
        return
    design = spec.design
    if isinstance(design, str):
        design = tr.call("designs.from_reference", from_reference, design)
    if spec.family == "config":
        tr.call("designs.certify", certify_configuration, design, *design.config_params)
    else:
        tr.call("designs.certify", certify_t_design, design, *design.t_params)


def build_array(tr: Tracer, spec: ConstructionSpec, stats: Stats):
    """construct_pda(spec).  Traced, the same stages are called one by one,
    in construct_pda's order, so each gets its own span."""
    if not tr.enabled:
        p, span = timed(construct_pda, spec)
        stats.array_latency[spec_key(spec)].append(span)
        return p
    _probe_inputs(tr, spec)
    triple = tr.call("constructions.build_triple", build_triple, spec)
    nx, ny, nz = len(triple.labels_x), len(triple.labels_y), len(triple.labels_z)
    tr.count("constructions.triple.cells", nx * ny + nx * nz + ny * nz)
    tr.count("constructions.triple.nnz", sum(map(sum, triple.c_xy))
             + sum(map(sum, triple.c_xz)) + sum(map(sum, triple.c_yz)))
    matched = tr.call("triples.complete_matching", complete_matching, triple)
    tr.call("triples.check_conditions", check_conditions, matched)
    oriented = tr.call("triples.orientations", orientations, matched)[spec.orientation - 1]
    return tr.call("triples.triple_to_pda", triple_to_pda, oriented)


def build_and_check(tr, chk, stats, spec, reference) -> object:
    key = spec_key(spec)
    p = build_array(tr, spec, stats)
    row = tr.call("constructions.closed_form_row", closed_form_row, spec)
    check_array(chk, tr, key, p, (row.k, row.f, row.q, row.s), reference.get(key))
    stats.arrays += 1
    return p


# --- construct -------------------------------------------------------------

# The K=651 rung and the k=7 rung in all orientations.  pg q=2 k=7 m=2 t=1 is
# left out: it takes 25-30 s and 0.6-0.8 GB per array in the library this
# benchmark was first written against.
CONSTRUCT_SPECS = tuple(ConstructionSpec("pg", o, q=2, k=k, m=m, t=t)
                        for k, m, t in ((6, 2, 2), (7, 1, 1)) for o in (1, 2, 3))


class Construct:
    name = "construct"

    def setup(self, seed, reference, workdir, stats, chk):
        # The inputs are fixed; the seed does not change them.
        return {"specs": CONSTRUCT_SPECS, "reference": reference["construct"]}

    def run_pass(self, state, tr, chk, stats):
        for spec in state["specs"]:
            with tr.op("construct"), chk.guard(spec_key(spec)):
                build_and_check(tr, chk, stats, spec, state["reference"])


# --- simulate --------------------------------------------------------------

SIM_SPEC = ConstructionSpec("pg", 1, q=2, k=6, m=2, t=2)
SIM_FILES = 4
SIM_SAMPLES = 20    # verify_scheme runs these plus the N all-alike demands
SIM_DEMANDS = 3     # demands sent through place -> deliver -> decode
SIM_USER_STEP = 41  # decode for users 0, 41, 82, ... (16 of the 651)
PACKET_SIZE = 16


class Simulate:
    name = "simulate"

    def setup(self, seed, reference, workdir, stats, chk):
        key = spec_key(SIM_SPEC)
        p, span = timed(construct_pda, SIM_SPEC)
        stats.array_latency[key].append(span)
        chk.check(digest(p) == reference["construct"][key],
                  f"{key}: set-up array digest differs from reference")
        rng = random.Random(seed)
        lib = FileLibrary.random(SIM_FILES, p.f, PACKET_SIZE, seed=rng.randrange(2 ** 32))
        demands = [tuple(rng.randrange(SIM_FILES) for _ in range(p.k))
                   for _ in range(SIM_DEMANDS)]
        return {"p": p, "lib": lib, "demands": demands, "seed": seed,
                "users": list(range(0, p.k, SIM_USER_STEP))}

    def run_pass(self, state, tr, chk, stats):
        p, lib, key = state["p"], state["lib"], spec_key(SIM_SPEC)
        with tr.op("verify"), chk.guard(f"{key} verify"):
            rep, span = timed(tr.call, "sim.verify_scheme", verify_scheme, p, SIM_FILES,
                              mode="sampled", samples=SIM_SAMPLES, seed=state["seed"])
            check_report(chk, key, p, rep, SIM_FILES + SIM_SAMPLES)
            stats.demands += rep.demands_tested
            stats.demand_failures += len(rep.failures)
            stats.verify_spans.append(span)
        t0 = time.perf_counter()
        with tr.op("place"), chk.guard(f"{key} place"):
            caches = tr.call("sim.place", place, p, lib)
            want = p.q * lib.n * lib.packet_size
            chk.check(all(c.size_bytes() == want for c in caches),
                      f"{key}: a cache does not hold Q*N packets")
        for i, demand in enumerate(state["demands"]):
            with tr.op("demand"), chk.guard(f"{key} demand {i}"):
                tx = tr.call("sim.deliver", deliver, p, lib, demand)
                chk.check(len(tx) == p.s, f"{key}: {len(tx)} transmissions, S={p.s}")
                for u in state["users"]:
                    out = tr.call("sim.decode", decode, p, caches[u], tx, demand, u)
                    check_decoded(chk, f"{key} demand {i} user {u}", out, lib, demand[u])
                    stats.users_decoded += 1
        stats.decode_spans.append((t0, time.perf_counter()))


# --- sweep -----------------------------------------------------------------
#
# The same specs as the test suite's desk-scale sweep: every family and
# orientation, q in {2, 3} and k <= 4 for pg, designs with at most 13 points.

CONFIG_REFS = ("fano", "td:2:2", "td:3:3", "td:4:3", "affine-9", "sts:13",
               "complete:4:2", "complete:5:2")
TDESIGN_A = (("fano", 1), ("affine-9", 1), ("sts:13", 1), ("sqs8", 2))
TDESIGN_B = (("complete:4:2", 1, 1), ("complete:5:2", 1, 1),
             ("complete:5:3", 1, 2), ("complete:5:3", 2, 1),
             ("complete:6:3", 1, 2))
TDESIGN_L = (("fano", 2, 1, 1), ("complete:4:2", 2, 1, 1),
             ("affine-9", 2, 1, 1), ("sqs8", 2, 1, 1), ("sqs8", 3, 1, 2),
             ("bibd-5-3-3", 2, 1, 1))

TINY_KEY = "tiny"
TINY_TEXT = "2 2 1 1\n* 1\n1 *\n"

# Factors of the pairwise products: the smallest sweep arrays plus the 2x2
# array, so that every pair stays small.
PRODUCT_FACTORS = (
    TINY_KEY,
    "pg:q=2,k=2,m=1,t=1:set1",
    "pg:q=3,k=2,m=1,t=1:set1",
    "pg:q=2,k=3,m=1,t=1:set1",
    "config:design=td:2:2:set1",
    "config:design=complete:4:2:set1",
    "config:design=complete:4:2:set2",
    "config:design=complete:4:2:set3",
    "config:design=fano:set2",
    "tdesign-b:design=complete:4:2,t1=1,t2=1:set1",
)
PRODUCT_PAIRS = tuple((a, b) for i, a in enumerate(PRODUCT_FACTORS)
                      for b in PRODUCT_FACTORS[i:])

# (name, sweep key of the array, construct arguments); the CLI product
# multiplies the first and last.
CLI_ARRAYS = (
    ("pg7", "pg:q=2,k=3,m=1,t=1:set1",
     ["pg", "--q", "2", "--k", "3", "--m", "1", "--t", "1", "--set", "1"]),
    ("fano2", "config:design=fano:set2", ["config", "--design", "fano", "--set", "2"]),
    ("tb4", "tdesign-b:design=complete:4:2,t1=1,t2=1:set1",
     ["tdesign-b", "--design", "complete:4:2", "--t1", "1", "--t2", "1", "--set", "1"]),
)


def product_key(a: str, b: str) -> str:
    return f"{a} x {b}"


def sweep_specs() -> list[ConstructionSpec]:
    bibd = as_t_design(complete_design(5, 3), 2)  # retagged as a 2-(5,3,3)
    out = []
    for q in (2, 3):
        for k in (2, 3, 4):
            for m in range(1, k):
                for t in range(1, k - m + 1):
                    for o in (1, 2, 3):
                        out.append(ConstructionSpec("pg", o, q=q, k=k, m=m, t=t))
    for ref in CONFIG_REFS:
        for o in (1, 2, 3):
            out.append(ConstructionSpec("config", o, design=ref))
    for ref, t0 in TDESIGN_A:
        for o in (1, 2, 3):
            out.append(ConstructionSpec("tdesign-a", o, design=ref, t0=t0))
    for ref, t1, t2 in TDESIGN_B:
        for o in (1, 2, 3):
            out.append(ConstructionSpec("tdesign-b", o, design=ref, t1=t1, t2=t2))
    for ref, t0, t1, t2 in TDESIGN_L:
        design = bibd if ref == "bibd-5-3-3" else ref
        for o in (1, 2, 3):
            out.append(ConstructionSpec("tdesign-lambda", o, design=design,
                                        t0=t0, t1=t1, t2=t2))
    return out


def admissible_specs() -> list[ConstructionSpec]:
    return [s for s in sweep_specs() if closed_form_row(s).admissible]


def run_cli(argv: list[str]) -> int:
    """pdakit.cli.main in this process, with its output captured."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli_main(argv)


class Sweep:
    name = "sweep"

    def setup(self, seed, reference, workdir, stats, chk):
        return {"specs": admissible_specs(), "seed": seed, "workdir": Path(workdir),
                "tiny": parse_pda(TINY_TEXT), "reference": reference}

    def run_pass(self, state, tr, chk, stats):
        ref = state["reference"]
        built = {TINY_KEY: state["tiny"]}
        for spec in state["specs"]:
            key = spec_key(spec)
            with tr.op("array"), chk.guard(key):
                p = build_and_check(tr, chk, stats, spec, ref["sweep"])
                built[key] = p
                n = min(p.k, 4)
                rep, span = timed(tr.call, "sim.verify_scheme", verify_scheme, p, n,
                                  seed=state["seed"])
                exhaustive = n ** p.k if n ** p.k <= 4096 else None
                check_report(chk, key, p, rep, exhaustive)
                stats.demands += rep.demands_tested
                stats.demand_failures += len(rep.failures)
                stats.verify_spans.append(span)
        for a, b in PRODUCT_PAIRS:
            key = product_key(a, b)
            with tr.op("product"), chk.guard(key):
                pa, pb = built[a], built[b]
                prod = tr.call("triples.direct_product", direct_product, pa, pb)
                # S has no closed form for a product; the digest pins it.
                check_array(chk, tr, key, prod, (*product_law(pa, pb), prod.s),
                            ref["products"].get(key))
                stats.arrays += 1
                stats.products += 1
        self._cli(state, tr, chk)

    def _cli(self, state, tr, chk):
        ref, wd, seed = state["reference"], state["workdir"], state["seed"]
        for name, key, args in CLI_ARRAYS:
            path = str(wd / f"{name}.pda")
            with tr.op("cli"), chk.guard(f"cli {name}"):
                code = tr.call("cli.construct", run_cli, ["construct", *args, "--out", path])
                check_exit(chk, f"cli construct {name}", code)
                got = digest(parse_pda(Path(path).read_text()))
                chk.check(got == ref["sweep"].get(key),
                          f"cli construct {name}: digest differs from reference")
                check_exit(chk, f"cli validate {name}",
                           tr.call("cli.validate", run_cli, ["validate", path]))
                check_exit(chk, f"cli simulate {name}",
                           tr.call("cli.simulate", run_cli, ["simulate", path, "--mode",
                                                             "adversarial", "--seed", str(seed)]))
        (first, key_a, _), (last, key_b, _) = CLI_ARRAYS[0], CLI_ARRAYS[-1]
        out = str(wd / "product.pda")
        with tr.op("cli"), chk.guard("cli product"):
            code = tr.call("cli.product", run_cli, ["product", str(wd / f"{first}.pda"),
                                                    str(wd / f"{last}.pda"), "--out", out])
            check_exit(chk, "cli product", code)
            got = digest(parse_pda(Path(out).read_text()))
            chk.check(got == ref["products"].get(product_key(key_a, key_b)),
                      "cli product: digest differs from reference")


WORKLOADS = {w.name: w for w in (Construct(), Simulate(), Sweep())}
