import random
import sys
import weakref
from dataclasses import replace

import pytest

import pdakit.constructions
import pdakit.triples
from pdakit.constructions import (ConstructionSpec, build_triple, configuration_triple,
                                  construct_pda, pg_triple, tdesign_b_triple)
from pdakit.designs import catalog_lookup, complete_design
from pdakit.pda import InvalidPdaError, Pda, STAR, canonical_relabel, validate_pda
from pdakit.triples import (ConditionError, TripleSystem, _columns, _match_column,
                            check_conditions, complete_matching,
                            direct_product, orientations, pda_to_triple, rows_of,
                            set_bits, triple_to_pda)

from conftest import TINY, all_pdas, triple_route_product


def _masks(mat):
    """Row bitmasks of a dense 0/1 matrix: bit j of row i is entry (i, j)."""
    return tuple(sum(v << j for j, v in enumerate(row)) for row in mat)


def _transpose(mat):
    return tuple(zip(*mat))


def _ts(c_xy, c_xz, c_yz):
    nx = len(c_xz)
    nz = len(c_xz[0]) if c_xz else 0
    ny = len(c_yz)
    return TripleSystem(tuple(range(nx)), tuple(f"y{i}" for i in range(ny)),
                        tuple(range(nz)), _masks(c_xy), _masks(c_xz), _masks(c_yz))


def test_pda_to_triple_matrices():
    t = pda_to_triple(TINY)
    assert t.labels_x == (0, 1)
    assert t.labels_y == (1,)
    assert t.labels_z == (0, 1)
    assert t.c_xy == ((1,), (1,))
    assert t.c_xz == ((0, 1), (1, 0))
    assert t.c_yz == ((1, 1),)


def test_pda_to_triple_requires_validity():
    bad = Pda(2, 2, 1, 1, ((1, 1), (STAR, STAR)))
    with pytest.raises(ValueError, match="not a valid PDA"):
        pda_to_triple(bad)


def test_conditions_on_tiny():
    rep = check_conditions(pda_to_triple(TINY))
    assert rep.necessary_ok and rep.matchable_ok and rep.uniform_ok
    assert (rep.d_x, rep.d_y, rep.d_z) == (1, 2, 1)
    assert rep.e6_degrees == (1, 1)
    assert rep.witnesses == {}


def test_conditions_on_constructed_array():
    from pdakit import ConstructionSpec, construct_pda
    p = construct_pda(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1))
    rep = check_conditions(pda_to_triple(p))
    assert rep.necessary_ok and rep.uniform_ok
    assert (rep.d_x, rep.d_y, rep.d_z) == (3, 3, 3)
    assert set(rep.e6_degrees) == {1}


def test_e1_failure():
    rep = check_conditions(_ts(((1,), (1,)), ((1, 0), (1, 0)), ((1, 1),)))
    assert not rep.e1
    assert rep.witnesses["E1"] == (0, 2)


def test_e2_failure():
    rep = check_conditions(_ts(((0,), (0,)), ((1, 1), (1, 1)), ((0, 0),)))
    assert rep.e1 and not rep.e2
    assert rep.witnesses["E2"] == ("y0",)


def test_e3_failure():
    # the one (x, y) pair sees two common columns
    rep = check_conditions(_ts(((1,),), ((1, 1),), ((1, 1),)))
    assert not rep.e3
    assert rep.witnesses["E3"] == (0, "y0")


def test_e4_failure():
    # cell (x0, z0) is incident but two symbols claim it
    rep = check_conditions(_ts(((1, 1),), ((1,),), ((1,), (1,))))
    assert rep.e3 is False or rep.e4 is False
    assert not rep.e4
    assert rep.witnesses["E4"] == (0, 0)


def test_e5_failure():
    rep = check_conditions(_ts(((1,), (1,)), ((1,), (1,)), ((1,),)))
    assert not rep.e5
    assert rep.witnesses["E5"] == ("y0", 0)


def test_e6_failure():
    # z0 induces degrees 1 and 2 on its rows
    c_xy = ((1, 0), (1, 1))
    c_xz = ((1,), (1,))
    c_yz = ((1,), (1,))
    rep = check_conditions(_ts(c_xy, c_xz, c_yz))
    assert not rep.e6
    assert rep.e6_degrees == (None,)
    assert rep.witnesses["E6"] == (0,)


def test_e6_degree_zero_column():
    # a column with no rows at all reports degree 0 but stays regular
    rep = check_conditions(_ts(((1,),), ((1, 0),), ((1, 0),)))
    assert rep.e6 and rep.e6_degrees == (1, 0)
    assert not rep.e1  # column sums differ, though


def test_triple_to_pda_round_trip():
    for p in (TINY,
              Pda(3, 3, 2, 1, ((STAR, STAR, 1), (STAR, 1, STAR), (1, STAR, STAR)))):
        assert triple_to_pda(pda_to_triple(p)) == canonical_relabel(p)


def test_triple_to_pda_rejects_condition_failures():
    with pytest.raises(ConditionError) as exc:
        triple_to_pda(_ts(((1,), (1,)), ((1,), (1,)), ((1,),)))
    assert exc.value.condition == "E5"


def test_triple_to_pda_rejects_degenerate():
    # every cell incident: no stars left
    full = _ts(((1,),), ((1,),), ((1,),))
    with pytest.raises(ValueError, match="Q = 0"):
        triple_to_pda(full)
    # no incident cells at all: nothing but stars
    empty = TripleSystem((0,), (), (0,), _masks(((),)), _masks(((0,),)), ())
    with pytest.raises(ValueError, match="Q = F"):
        triple_to_pda(empty)
    # no rows and no columns
    with pytest.raises(ValueError, match="^empty row or column set$"):
        triple_to_pda(TripleSystem((), (), (), (), (), ()))


def test_symbol_relabel_invariance():
    p = Pda(2, 2, 1, 2, ((STAR, 1), (2, STAR)))
    assert validate_pda(p).ok
    swapped = Pda(2, 2, 1, 2, ((STAR, 2), (1, STAR)))
    assert validate_pda(swapped).ok
    assert triple_to_pda(pda_to_triple(swapped)) == canonical_relabel(swapped)
    assert canonical_relabel(p) == canonical_relabel(swapped) == p


def _label_matching(left, right, edges) -> dict:
    """Label-keyed adapter over the column matcher: left are the rows, the
    symbol mask holds all of right."""
    li = {lab: i for i, lab in enumerate(left)}
    ri = {lab: i for i, lab in enumerate(right)}
    rows = [0] * len(li)
    for l, r in edges:
        rows[li[l]] |= 1 << ri[r]
    owner = _match_column(range(len(rows)), (1 << len(ri)) - 1, tuple(rows))
    return {left[x]: right[y] for y, x in owner.items()}


def test_matching_deterministic_cycle():
    left = right = (1, 2, 3)
    edges = [(a, b) for a in left for b in right if a != b]
    got = _label_matching(left, right, edges)
    assert got == {1: 2, 2: 3, 3: 1}
    assert _label_matching(left, right, reversed(edges)) == got


def _recursive_matching(left, right, edges) -> dict:
    """Reference: the recursive augmenting-path search, same visiting order."""
    li = {lab: i for i, lab in enumerate(left)}
    ri = {lab: i for i, lab in enumerate(right)}
    adj = [[] for _ in left]
    for l, r in edges:
        adj[li[l]].append(ri[r])
    for a in adj:
        a.sort()
    owner = [-1] * len(right)

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if owner[v] < 0 or augment(owner[v], seen):
                    owner[v] = u
                    return True
        return False

    for u in range(len(left)):
        assert augment(u, set())
    return {left[owner[v]]: right[v] for v in range(len(right))}


def test_matching_equals_recursive_reference():
    rng = random.Random(5)
    for _ in range(200):
        n, d = rng.randint(1, 12), rng.randint(1, 4)
        left = rng.sample(range(100), n)
        right = rng.sample(range(100), n)
        perm = rng.sample(right, n)
        shifts = rng.sample(range(n), min(d, n))
        edges = [(left[i], perm[(i + s) % n]) for i in range(n) for s in shifts]
        rng.shuffle(edges)
        assert (_label_matching(left, right, edges)
                == _recursive_matching(left, right, edges))


def test_matching_long_cycle_has_no_recursion_limit():
    # the last vertex's augmenting path runs around the whole cycle
    n = 2000
    edges = [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)]
    got = _label_matching(range(n), range(n), edges)
    assert got == {i: (i + 1) % n for i in range(n)}


def test_matching_sizes_equal_networkx():
    import networkx as nx  # test-only dependency
    rng = random.Random(11)
    for _ in range(200):
        n, d = rng.randint(1, 15), rng.randint(1, 5)
        perm = rng.sample(range(n), n)
        shifts = rng.sample(range(n), min(d, n))
        edges = [(i, n + perm[(i + s) % n]) for i in range(n) for s in shifts]
        got = _label_matching(range(n), range(n, 2 * n), edges)
        g = nx.Graph(edges)
        want = nx.bipartite.hopcroft_karp_matching(g, top_nodes=range(n))
        assert len(got) == len(want) // 2 == n
        assert all(g.has_edge(l, r) for l, r in got.items())
        assert sorted(got.values()) == list(range(n, 2 * n))


def _sweep_triples(sweep) -> list:
    """(spec, raw triple, matched triple) once per distinct sweep triple."""
    out = {}
    for spec, _, _ in sweep["built"]:
        key = (spec.family, spec.label())
        if key not in out:
            raw = build_triple(spec)
            out[key] = (spec, raw, complete_matching(raw))
    return list(out.values())


@pytest.fixture(scope="module")
def k651():
    """The raw and matched pg q=2 k=6 m=2 t=2 systems (K = F = S = 651)."""
    raw = pg_triple(2, 6, 2, 2)
    return raw, complete_matching(raw)


def _not_single(rows, a, b, labels_a, labels_b):
    """Reference: the pairwise scan, one AND per incident (i, j) pair, for
    the first pair with a[i] & b[j] other than a single bit."""
    for i, row in enumerate(rows):
        for j in set_bits(row):
            if (a[i] & b[j]).bit_count() != 1:
                return labels_a[i], labels_b[j]
    return None


def test_row_scans_give_the_pairwise_first_witness(sweep, k651):
    systems = [s for _, raw, t in _sweep_triples(sweep) for s in (raw, t)] + [k651[0]]
    rng = random.Random(7)
    failing = {"E3": 0, "E4": 0, "E5": 0}
    for base in systems:
        widths = {"xy": len(base.labels_y), "xz": len(base.labels_z),
                  "yz": len(base.labels_z)}
        for name, width in widths.items():
            for _ in range(3):
                rows = list(getattr(base, name))
                rows[rng.randrange(len(rows))] ^= 1 << rng.randrange(width)
                t = replace(base, **{name: tuple(rows)})
                lx, ly, lz = t.labels_x, t.labels_y, t.labels_z
                want = {"E3": _not_single(t.xy, t.xz, t.yz, lx, ly),
                        "E4": _not_single(t.xz, t.xy, t.cols_yz, lx, lz),
                        "E5": _not_single(t.yz, t.cols_xy, t.cols_xz, ly, lz)}
                rep = check_conditions(t)
                assert {c: rep.witnesses.get(c) for c in want} == want
                assert (rep.e3, rep.e4, rep.e5) == tuple(w is None for w in want.values())
                for c, w in want.items():
                    failing[c] += w is not None
    assert min(failing.values()) > 0, failing


def test_complete_matching_is_perfect_per_column(sweep):
    for spec, raw, t in _sweep_triples(sweep):
        for z, (xs, ys) in enumerate(zip(t.cols_xz, t.cols_yz)):
            # within column z every row meets exactly one symbol, and back,
            # along an edge of the raw system
            for x in range(len(t.labels_x)):
                if xs >> x & 1:
                    assert (t.xy[x] & ys).bit_count() == 1, (spec, z, x)
                    assert t.xy[x] & ys & raw.xy[x]
            for y in range(len(t.labels_y)):
                if ys >> y & 1:
                    assert (t.cols_xy[y] & xs).bit_count() == 1, (spec, z, y)


def test_every_orientation_of_a_matched_system_passes_e1_to_e5(sweep, k651):
    # construct_pda emits the array without rescanning E1-E5; this is why
    # it may: each orientation of a complete_matching result passes them.
    triples = [t for _, _, t in _sweep_triples(sweep)]
    triples += [k651[1], complete_matching(pg_triple(2, 7, 1, 1))]
    assert len(triples) == 43 + 2  # all 105 sweep arrays come from 43 systems
    for t in triples:
        for o in orientations(t):
            assert check_conditions(o).necessary_ok


def test_construct_pda_scans_conditions_once(monkeypatch, fresh_cells):
    # once per system, and only what the matching path reads: E1-E3 in one
    # scan of the built system, whose E3 fold runs once, over its lists and
    # C_XY's columns.  No E4 or E5 witness, no full report, and no mask of C_XZ
    # or C_YZ, rows or columns.  C_XY's columns come from one transpose of
    # the built xy, or from none when m == t, where pg's C_XY is its own
    # transpose.  The other orientations of the same spec scan nothing;
    # another spec scans again.
    scans, folds, transposed, reports, e4_e5 = [], [], [], [], []
    real_scan, real_fold = pdakit.triples._scan, pdakit.triples._e3_pair
    monkeypatch.setattr(pdakit.triples, "_scan", lambda t: scans.append(t) or real_scan(t))
    monkeypatch.setattr(pdakit.triples, "_e3_pair",
                        lambda *args: folds.append(args) or real_fold(*args))
    monkeypatch.setattr(pdakit.triples, "_graph_scan", lambda *args: e4_e5.append(args))
    monkeypatch.setattr(pdakit.triples, "check_conditions", reports.append)
    monkeypatch.setattr(pdakit.triples, "_columns",
                        lambda rows, ncols: transposed.append(rows) or _columns(rows, ncols))
    fano = ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1)
    for spec, scanned in ((fano, 1), (replace(fano, orientation=2), 0),
                          (replace(fano, orientation=3), 0),
                          (ConstructionSpec("pg", 2, q=3, k=3, m=1, t=1), 1),
                          (ConstructionSpec("pg", 1, q=2, k=4, m=1, t=2), 1)):
        scans.clear()
        folds.clear()
        transposed.clear()
        p = construct_pda(spec)
        assert validate_pda(p).ok
        assert len(scans) == len(folds) == scanned and reports == e4_e5 == [], spec
        for built in scans:
            cols_xy, zs_of_y, _ = folds[0]
            assert cols_xy is built.cols_xy and zs_of_y is built.zs_of_y
            if spec.m == spec.t:
                assert transposed == [] and cols_xy is built.xy
            else:
                assert list(map(id, transposed)) == [id(built.xy)]
            assert not {"xz", "yz", "cols_xz", "cols_yz"} & vars(built).keys()
        if not scanned:
            assert transposed == []


def test_construct_pda_makes_no_mask_over_the_columns(monkeypatch, fresh_cells):
    # pg q=2 k=7 m=1 t=1: |X| = |Y| = 127 points, |Z| = 2667 lines.  C_XZ
    # and C_YZ go from pg_triple to the emitter as index lists: no helper
    # that makes or walks a mask sees one wider than the 128 points of
    # F_2^7 (|X| + 1: the point masks of pg's subspaces), and the built
    # system never makes its xz or yz rows or a column mask over them.
    spec = ConstructionSpec("pg", 1, q=2, k=7, m=1, t=1)
    widths, built = [], []

    def record(fn, width):
        def wrapped(*args):
            out = fn(*args)
            widths.append(width(args, out))
            return out
        return wrapped

    for module in (pdakit.triples, pdakit.constructions):
        monkeypatch.setattr(module, "set_bits",
                            record(module.set_bits, lambda args, out: args[0].bit_length()))
        monkeypatch.setattr(module, "rows_of", record(module.rows_of, lambda args, out: args[2]))
    monkeypatch.setattr(pdakit.triples, "_columns",
                        record(_columns, lambda args, out: max(args[1], len(args[0]))))
    monkeypatch.setattr(pdakit.triples, "_masks", record(
        pdakit.triples._masks, lambda args, out: max(map(int.bit_length, out), default=0)))
    monkeypatch.setattr(pdakit.constructions, "build_triple", record(
        pdakit.constructions.build_triple, lambda args, out: built.append(out) or 0))
    p = construct_pda(spec)
    assert (p.k, p.f, p.s) == (127, 127, 2667) and validate_pda(p).ok
    sizes = tuple(map(len, (built[0].labels_x, built[0].labels_y, built[0].labels_z)))
    assert sizes == (127, 127, 2667)
    assert len(widths) > 2667 and max(widths) == 128
    assert not {"xz", "yz", "cols_xz", "cols_yz"} & vars(built[0]).keys()


def _staged(spec, matched=None):
    """The staged pipeline: the matched system's rotation, scanned and emitted."""
    matched = matched or complete_matching(build_triple(spec))
    return triple_to_pda(orientations(matched)[spec.orientation - 1])


def test_construct_pda_equals_the_staged_pipeline(sweep, k651):
    # construct_pda emits from the matched cells in the orientation's roles;
    # the staged route builds the matched system and its rotation
    for spec, _, p in sweep["built"]:
        assert p == _staged(spec), spec
    for k, m, t, matched in ((6, 2, 2, k651[1]), (7, 1, 1, None)):
        for o in (1, 2, 3):
            spec = ConstructionSpec("pg", o, q=2, k=k, m=m, t=t)
            assert construct_pda(spec) == _staged(spec, matched), spec


def test_construct_pda_in_any_order_equals_the_staged_pipeline(monkeypatch, fresh_cells):
    # orientations 3 then 1 of one system, another system, then 2 of the
    # first: each array is the staged one, whichever cells are held
    fano = ConstructionSpec("pg", 3, q=2, k=3, m=1, t=1)
    other = ConstructionSpec("config", 1, design="affine-9")
    real, built = pdakit.constructions.build_triple, []
    monkeypatch.setattr(pdakit.constructions, "build_triple",
                        lambda spec: built.append(spec.label()) or real(spec))
    for spec in (fano, replace(fano, orientation=1), other, replace(fano, orientation=2)):
        assert construct_pda(spec) == _staged(spec), spec
    assert built == [fano.label(), other.label(), fano.label()]


def test_construct_pda_holds_one_system(monkeypatch, fresh_cells):
    # the slot holds the last system built, keyed by its spec in orientation
    # 1, as cells and never as a TripleSystem; the system before is let go
    real, builds = pdakit.constructions.build_triple, []
    monkeypatch.setattr(pdakit.constructions, "build_triple",
                        lambda spec: builds.append(spec) or real(spec))
    cells = []
    for spec in (ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1),
                 ConstructionSpec("pg", 1, q=2, k=4, m=1, t=1),
                 ConstructionSpec("pg", 3, q=2, k=4, m=1, t=1)):
        construct_pda(spec)
        key, held = pdakit.constructions._held
        assert key == replace(spec, orientation=1)
        assert not any(isinstance(v, TripleSystem) for v in held)
        cells.append(weakref.ref(held.cells[0]))
    assert len(builds) == 2 and cells[1]() is cells[2]() is held.cells[0]
    assert cells[0]() is None


def test_a_spec_that_raises_is_not_cached(monkeypatch, fresh_cells):
    # a built system that fails E3 raises on every call, with the full
    # report's witness, and leaves the cells held before it in place
    good = ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1)
    bad = ConstructionSpec("pg", 1, q=2, k=4, m=1, t=1)
    raw = pg_triple(2, 4, 1, 1)
    flipped = replace(raw, xy=(raw.xy[0] ^ 1,) + raw.xy[1:])
    witness = check_conditions(flipped).witnesses["E3"]
    real, builds = pdakit.constructions.build_triple, []

    def build(spec):
        builds.append(spec)
        return flipped if spec == bad else real(spec)

    monkeypatch.setattr(pdakit.constructions, "build_triple", build)
    construct_pda(good)
    for o in (1, 2, 3):
        with pytest.raises(ConditionError) as exc:
            construct_pda(replace(bad, orientation=o))
        assert (exc.value.condition, exc.value.witness) == ("E3", witness)
    assert builds == [good] + [bad] * 3
    assert pdakit.constructions._held[0] == good
    stats = {}
    construct_pda(replace(good, orientation=2), stats)
    assert len(builds) == 4 and pdakit.constructions._held[0] == good
    assert stats["reused"] is True and stats["kuhn_runs"] == 0


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps call arguments alive on the caller's stack")
def test_construct_pda_frees_the_built_system_before_emitting(monkeypatch, fresh_cells):
    built, alive = [], []
    real_build, real_emit = pdakit.constructions.build_triple, pdakit.triples._emit

    def build(spec):
        t = real_build(spec)
        built.append(weakref.ref(t))
        return t

    def emit(*args):
        alive.append(built[-1]() is not None)
        return real_emit(*args)

    monkeypatch.setattr(pdakit.constructions, "build_triple", build)
    monkeypatch.setattr(pdakit.triples, "_emit", emit)
    for o in (1, 2, 3):
        construct_pda(ConstructionSpec("pg", o, q=2, k=3, m=1, t=1))
    assert len(built) == 1 and alive == [False] * 3


def _per_column_matching(t: TripleSystem) -> tuple:
    """Reference: the matched xy masks from one _match_column call per
    column on the global masks, with no memo."""
    chosen = [0] * len(t.labels_x)
    for xs, ys in zip(t.cols_xz, t.cols_yz):
        for y, x in _match_column(set_bits(xs), ys, t.xy).items():
            chosen[x] |= 1 << y
    return tuple(chosen)


def test_complete_matching_equals_per_column_reference(sweep, k651):
    # complete_matching runs Kuhn once per distinct column graph, in local
    # indices; every column must still get its global-mask matching
    systems = [raw for _, raw, _ in _sweep_triples(sweep)]
    systems += [k651[0], pg_triple(2, 7, 1, 1)]
    assert len(systems) == 43 + 2
    for raw in systems:
        assert complete_matching(raw).xy == _per_column_matching(raw)


def test_complete_matching_tells_equal_sized_column_graphs_apart():
    # Both columns pair 4 rows with 4 symbols in a 2-regular graph: z0 is one
    # 8-cycle (row i meets symbols i and i+1 mod 4), z1 two 4-cycles (rows
    # 4, 5 meet symbols 6, 7 and rows 6, 7 meet symbols 4, 5).  z0's matching,
    # row i to symbol i + 1 mod 4 once row 3 reroutes the path, holds no edge
    # of z1 in local indices.
    xy = [0] * 8
    for i in range(4):
        xy[i] = 1 << i | 1 << (i + 1) % 4
    xy[4] = xy[5] = 0b11000000
    xy[6] = xy[7] = 0b00110000
    first, second = 0b00001111, 0b11110000
    t = TripleSystem(tuple(range(8)), tuple(range(8)), (0, 1), tuple(xy),
                     tuple(1 if x < 4 else 2 for x in range(8)),
                     tuple(1 if y < 4 else 2 for y in range(8)))
    assert (t.cols_xz, t.cols_yz) == ((first, second), (first, second))
    matched = complete_matching(t)
    assert matched.xy == (1 << 1, 1 << 2, 1 << 3, 1 << 0,
                          1 << 7, 1 << 6, 1 << 5, 1 << 4)
    assert matched.xy == _per_column_matching(t)


def test_e6_is_decided_once_per_column_key(monkeypatch, fresh_cells):
    """check_conditions and construct_pda each run _judge once per distinct
    column key: once on K=651 (pg q=2 k=6 m=2 t=2), whose 651 columns share
    one key."""
    spec = ConstructionSpec("pg", 1, q=2, k=6, m=2, t=2)
    t = build_triple(spec)
    keys = {key for _, _, _, key, _ in pdakit.triples._local_graphs(t)}
    assert len(keys) == 1 and len(t.labels_z) == 651
    calls = []
    real = pdakit.triples._judge
    monkeypatch.setattr(pdakit.triples, "_judge",
                        lambda *key: calls.append(key) or real(*key))
    assert check_conditions(t).e6
    assert calls == list(keys)
    calls.clear()
    assert construct_pda(spec).k == 651
    assert calls == list(keys)


def test_each_column_graph_is_built_once_per_call(monkeypatch, k651):
    """check_conditions and triple_to_pda each walk the column graphs once
    (_local_graphs), E4, E5 and E6 together, and triple_to_pda reads its
    cells without walking them again."""
    walks = []
    real = pdakit.triples._local_graphs
    monkeypatch.setattr(pdakit.triples, "_local_graphs", lambda t: walks.append(t) or real(t))
    raw, matched = k651
    assert not check_conditions(raw).necessary_ok and walks == [raw]
    for o in orientations(matched):
        walks.clear()
        assert validate_pda(triple_to_pda(o)).ok and walks == [o]
    walks.clear()
    with pytest.raises(ConditionError, match="E4"):
        triple_to_pda(raw)
    assert walks == [raw]


def test_complete_matching_thins_to_constant_degree():
    raw = pg_triple(2, 3, 1, 1)
    before = check_conditions(raw)
    # raw system: E1-E3 and E6 hold, the unique-symbol conditions do not
    assert before.matchable_ok and not before.e4 and not before.e5
    assert set(before.e6_degrees) == {2}
    matched = complete_matching(raw)
    after = check_conditions(matched)
    assert after.necessary_ok and after.uniform_ok
    assert sum(matched.c_xy[0]) == 3
    assert set(after.e6_degrees) == {1}


def test_complete_matching_fano():
    matched = complete_matching(configuration_triple(catalog_lookup("fano")))
    p = triple_to_pda(orientations(matched)[0])
    assert (p.k, p.f, p.q, p.s) == (7, 7, 4, 7)
    assert validate_pda(p).ok


def test_complete_matching_preserves_degree_one():
    raw = tdesign_b_triple(complete_design(4, 2), 1, 1)
    assert complete_matching(raw).c_xy == raw.c_xy


def test_complete_matching_requires_conditions():
    with pytest.raises(ConditionError) as exc:
        complete_matching(_ts(((1,), (1,)), ((1, 0), (1, 0)), ((1, 1),)))
    assert exc.value.condition == "E1"
    # z0 induces degrees 1 and 2 on its rows: the E6 scan's witness
    with pytest.raises(ConditionError) as exc:
        complete_matching(_ts(((1, 0), (1, 1)), ((1,), (1,)), ((1,), (1,))))
    assert (exc.value.condition, exc.value.witness) == ("E6", (0,))


def test_matching_input_validation():
    # the column matcher takes no labels and checks nothing itself:
    # complete_matching refuses each column it cannot match perfectly.
    # Sides differ: z0 holds both rows and no symbol; z1 pairs each row with
    # its one symbol
    with pytest.raises(ConditionError) as exc:
        complete_matching(_ts(((1, 0), (0, 1)), ((1, 1), (1, 1)), ((0, 1), (0, 1))))
    assert (exc.value.condition, exc.value.witness) == ("E6", (0,))
    # not regular: in z0 row 0 meets both symbols, row 1 only the first
    with pytest.raises(ConditionError) as exc:
        complete_matching(_ts(((1, 1), (1, 0)), ((1,), (1,)), ((1,), (1,))))
    assert (exc.value.condition, exc.value.witness) == ("E6", (0,))
    # not regular: z0 pairs one row with one symbol along no edge
    with pytest.raises(ConditionError) as exc:
        complete_matching(_ts(((0,),), ((1,),), ((1,),)))
    assert (exc.value.condition, exc.value.witness) == ("E6", (0,))


def test_orientations_identity_and_params():
    matched = complete_matching(pg_triple(2, 3, 1, 1))
    s1, s2, s3 = orientations(matched)
    assert s3 is matched
    for s in (s1, s2, s3):
        p = triple_to_pda(s)
        assert (p.k, p.f, p.q, p.s) == (7, 7, 4, 7)
        assert validate_pda(p).ok


def test_orientations_equal_dense_transposes(sweep):
    # reference: the dense rotations, each matrix transposed as a whole
    triples = _sweep_triples(sweep)
    assert len(triples) >= 30
    for _, _, t in triples:
        s1, s2, s3 = orientations(t)
        assert (s1.c_xy, s1.c_xz, s1.c_yz) == (t.c_yz, _transpose(t.c_xy), _transpose(t.c_xz))
        assert (s2.c_xy, s2.c_xz, s2.c_yz) == (_transpose(t.c_yz), _transpose(t.c_xz),
                                               _transpose(t.c_xy))
        assert (s3.c_xy, s3.c_xz, s3.c_yz) == (t.c_xy, t.c_xz, t.c_yz)
        assert (s1.labels_x, s1.labels_y, s1.labels_z) == (t.labels_y, t.labels_z, t.labels_x)
        assert (s2.labels_x, s2.labels_y, s2.labels_z) == (t.labels_z, t.labels_y, t.labels_x)
        for s in (t, s1, s2):
            assert s.cols_xy == _masks(_transpose(s.c_xy))
            assert s.cols_xz == _masks(_transpose(s.c_xz))
            assert s.cols_yz == _masks(_transpose(s.c_yz))


def test_triple_system_keeps_its_own_masks():
    t = pda_to_triple(TINY)
    xz = list(t.xz)
    own = TripleSystem(t.labels_x, t.labels_y, t.labels_z, list(t.xy), xz, list(t.yz))
    assert own.cols_xz == t.cols_xz
    xz[0] = 0b11  # would break E1 if own held the caller's list
    assert (own.xy, own.xz, own.yz) == (t.xy, t.xz, t.yz)
    assert check_conditions(own) == check_conditions(t)
    assert hash(own) == hash(t)


def test_columns_and_rows_of_equal_dense_reference():
    rng = random.Random(3)
    for density in (0.1, 0.5, 0.9):  # 0.9 is transposed through the complement
        for _ in range(30):
            nr, nc = rng.randint(1, 9), rng.randint(1, 9)
            mat = tuple(tuple(int(rng.random() < density) for _ in range(nc)) for _ in range(nr))
            assert _columns(_masks(mat), nc) == _masks(_transpose(mat))
            for row in _masks(mat):
                assert rows_of(((0, j) for j in set_bits(row)), 1, nc) == (row,)
            # the ones in column-major order, as pg's point-holders give them
            ones = [(i, j) for j in range(nc) for i in range(nr) if mat[i][j]]
            assert rows_of(ones, nr, nc) == _masks(mat)
    # rows of 1500 columns, walked by their ones or through the complement
    for density in (0.3, 0.7):
        mat = tuple(tuple(int(rng.random() < density) for _ in range(1500)) for _ in range(3))
        assert _columns(_masks(mat), 1500) == _masks(_transpose(mat))
    assert rows_of([], 1, 0) == (0,) and rows_of([(0, 70), (0, 3)], 1, 71) == (1 << 70 | 1 << 3,)
    assert rows_of([], 0, 5) == ()


def test_set_bits_equals_the_bit_by_bit_reference():
    rng = random.Random(5)
    for width in (1, 7, 64, 400, 1000, 5000):
        for count in {0, 1, 2, width // 3, 384, 385, width - 1, width}:
            if 0 <= count <= width:
                mask = sum(1 << i for i in rng.sample(range(width), count))
                want = [i for i in range(width) if mask >> i & 1]
                assert set_bits(mask) == want


def test_triple_system_rejects_bad_masks():
    ok = (1, 2)
    TripleSystem((0, 1), ("a",), (0, 1), (1, 1), ok, (3,))
    with pytest.raises(ValueError, match="xz rows must be int masks below 1 << 2"):
        TripleSystem((0, 1), ("a",), (0, 1), (1, 1), (1, 4), (3,))  # bit 2 of 2 columns
    with pytest.raises(ValueError, match="yz rows"):
        TripleSystem((0, 1), ("a",), (0, 1), (1, 1), ok, (1 << 5,))
    with pytest.raises(ValueError, match="xy rows"):
        TripleSystem((0, 1), ("a",), (0, 1), (1, -1), ok, (3,))
    with pytest.raises(ValueError, match="xy rows"):
        TripleSystem((0, 1), ("a",), (0, 1), (True, 1), ok, (3,))
    with pytest.raises(ValueError, match="xy rows"):
        TripleSystem((0, 1), ("a",), (0, 1), ((1,), (1,)), ok, (3,))  # dense rows
    with pytest.raises(ValueError, match="xz must have 2 rows, got 1"):
        TripleSystem((0, 1), ("a",), (0, 1), (1, 1), (1,), (3,))


def test_orientations_require_constant_degrees():
    with pytest.raises(ConditionError) as exc:
        orientations(_ts(((1,), (1,)), ((1, 0), (1, 0)), ((1, 1),)))
    assert exc.value.condition == "E1'"


def test_direct_product_tiny():
    p = direct_product(TINY, TINY)
    assert (p.k, p.f, p.q, p.s) == (4, 4, 3, 1)
    assert p.grid == ((STAR, STAR, STAR, 1), (STAR, STAR, 1, STAR),
                      (STAR, 1, STAR, STAR), (1, STAR, STAR, STAR))


def test_direct_product_parameters(sweep):
    for name, a, b, prod in sweep["products"]:
        assert prod.k == a.k * b.k, name
        assert prod.f == a.f * b.f, name
        assert prod.q == a.f * b.q + b.f * a.q - a.q * b.q, name
        assert prod.s == a.s * b.s, name
        assert validate_pda(prod).ok, name


def test_direct_product_rejects_invalid_factor():
    bad = Pda(2, 2, 1, 1, ((1, 1), (STAR, STAR)))
    with pytest.raises(ValueError, match="factor is not a valid PDA"):
        direct_product(TINY, bad)
    with pytest.raises(InvalidPdaError, match="^first factor") as exc:
        direct_product(bad, TINY)
    assert exc.value.report == validate_pda(bad)


def test_direct_product_equals_triple_route(sweep):
    pool = [p for p in all_pdas(sweep) if p.k * p.f <= 30]
    assert len(pool) >= 14
    for a in pool:
        for b in pool:
            assert direct_product(a, b) == triple_route_product(a, b)


def test_condition_error_carries_witness():
    err = ConditionError("E3", "probe", witness=(1, 2))
    assert err.condition == "E3" and err.witness == (1, 2)
    assert "E3 fails: probe" in str(err)
