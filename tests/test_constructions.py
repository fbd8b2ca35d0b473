import itertools
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from pdakit import constructions, designs
from pdakit.constructions import (FAMILIES, ConstructionSpec, _binomial, _invariants,
                                  bibd_rate_identity, build_triple, closed_form_row,
                                  configuration_rate_bound,
                                  configuration_triple, construct_pda, design_table,
                                  mn_baseline, pg_triple, tdesign_a_triple,
                                  tdesign_b_triple, tdesign_lambda_triple)
from pdakit.designs import Design, as_t_design, catalog_lookup, complete_design
from pdakit.pda import STAR, Pda, canonical_relabel, format_pda, validate_pda
from pdakit.sim import verify_scheme
from pdakit.triples import TripleSystem, check_conditions, complete_matching, orientations

from conftest import _BIBD_5_3_3, TDESIGN_L, sweep_specs


def _params(spec):
    row = closed_form_row(spec)
    return (row.k, row.f, row.q, row.s)


# --- spec plumbing --------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        ConstructionSpec("frobnicate")
    with pytest.raises(ValueError, match="orientation"):
        ConstructionSpec("pg", 4, q=2, k=3, m=1, t=1)
    with pytest.raises(ValueError, match="--q"):
        ConstructionSpec("pg", 1, k=3, m=1, t=1)
    with pytest.raises(ValueError, match="--design"):
        ConstructionSpec("config", 1)
    with pytest.raises(ValueError, match="--t0"):
        ConstructionSpec("tdesign-a", 1, design="fano")


def test_spec_labels():
    assert ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1).label() == "q=2,k=3,m=1,t=1"
    assert (ConstructionSpec("tdesign-b", 1, design="complete:4:2", t1=1, t2=1).label()
            == "design=complete:4:2,t1=1,t2=1")
    spec = ConstructionSpec("tdesign-lambda", 1, design=_BIBD_5_3_3, t0=2, t1=1, t2=1)
    assert spec.label() == "design=2-(5,3,3),t0=2,t1=1,t2=1"
    assert spec.resolved_design() is _BIBD_5_3_3
    fano = catalog_lookup("fano")
    config_only = replace(fano, t_params=None)
    assert ConstructionSpec("config", 1, design=config_only).label() == "design=(7_3,7_3)"
    untagged = replace(config_only, config_params=None)
    assert ConstructionSpec("config", 1, design=untagged).label() == "design=v=7,b=7"


# --- hypothesis rejection -------------------------------------------------


def test_pg_hypotheses():
    with pytest.raises(ValueError):
        pg_triple(2, 3, 2, 2)  # m + t > k
    with pytest.raises(ValueError):
        pg_triple(2, 3, 0, 1)
    with pytest.raises(ValueError, match="unsupported field order"):
        pg_triple(6, 3, 1, 1)


def test_config_rejects_repeated_pairs():
    # all 3-subsets of a 4-set cover each pair twice
    with pytest.raises(ValueError, match="configuration"):
        configuration_triple(complete_design(4, 3))


@pytest.mark.parametrize("blocks, why", [
    (((0, 1), (0, 2, 3), (2, 3)), r"\(4_2,3_2\)-configuration: block-size at \(1, 3\)"),
    (((0, 1), (0, 2), (0, 3), (1, 2)), r"\(4_3,4_2\)-configuration: replication at \(1, 2\)"),
    ((), "a configuration needs at least one block"),
], ids=["block-size", "replication", "no-block"])
def test_an_undeclared_configuration_is_judged_by_its_certificate(blocks, why):
    """Without config_params, k is block 0's size and r the number of blocks
    holding point 0; the certificate names the first block or point that
    differs, and a design with no block is refused."""
    d = designs.Design(4, blocks)
    with pytest.raises(ValueError, match=why):
        configuration_triple(d)
    with pytest.raises(ValueError, match=why):
        closed_form_row(ConstructionSpec("config", 1, design=d))


def test_tdesign_a_hypotheses():
    fano = catalog_lookup("fano")
    with pytest.raises(ValueError, match="t0"):
        tdesign_a_triple(fano, 2)  # t0 > t - 1
    with pytest.raises(ValueError, match="t0"):
        tdesign_a_triple(catalog_lookup("sqs8"), 1)  # 2 t0 < t
    with pytest.raises(ValueError, match="lambda = 1"):
        tdesign_a_triple(_BIBD_5_3_3, 1)
    with pytest.raises(ValueError, match="k/2"):
        tdesign_a_triple(complete_design(5, 3), 2)  # t = 3 > k/2 + 1


def test_a_t_design_family_certifies_the_declared_parameters():
    wrong_lambda = replace(catalog_lookup("fano"), t_params=(2, 7, 3, 2))
    with pytest.raises(ValueError, match=r"^not a 2-\(7,3,2\) design: coverage at "):
        construct_pda(ConstructionSpec("tdesign-a", 1, design=wrong_lambda, t0=1))


def test_tdesign_b_hypotheses():
    fano = catalog_lookup("fano")
    with pytest.raises(ValueError, match="t1 \\+ t2"):
        tdesign_b_triple(fano, 1, 1)
    with pytest.raises(ValueError, match="max"):
        tdesign_b_triple(fano, 1, 2)  # max(t1,t2) = 2 = t
    with pytest.raises(ValueError, match="lambda = 1"):
        tdesign_b_triple(_BIBD_5_3_3, 1, 2)


def test_tdesign_a_b_closed_forms_check_the_designs_lambda():
    # a 2-(7,3,5) and a 3-(6,4,3) design: the closed form refuses what the builder refuses
    for spec in (ConstructionSpec("tdesign-a", 1, t0=1,
                                  design=as_t_design(complete_design(7, 3), 2)),
                 ConstructionSpec("tdesign-b", 1, t1=2, t2=2,
                                  design=as_t_design(complete_design(6, 4), 3))):
        for fn in (closed_form_row, construct_pda):
            with pytest.raises(ValueError, match="needs lambda = 1"):
                fn(spec)


def test_tdesign_lambda_hypotheses():
    fano = catalog_lookup("fano")
    with pytest.raises(ValueError, match="t0 = t1 \\+ t2"):
        tdesign_lambda_triple(fano, 2, 1, 2)
    with pytest.raises(ValueError, match="t0 <= t"):
        tdesign_lambda_triple(fano, 3, 1, 2)


# --- raw triple structure -------------------------------------------------


def test_pg_triple_degrees():
    rep = check_conditions(pg_triple(2, 3, 1, 1))
    assert (rep.d_x, rep.d_y, rep.d_z) == (3, 3, 3)
    assert set(rep.e6_degrees) == {2}  # q^(m t)
    assert rep.matchable_ok and not rep.e4


def test_config_triple_degrees():
    rep = check_conditions(configuration_triple(catalog_lookup("fano")))
    assert (rep.d_x, rep.d_y, rep.d_z) == (3, 3, 3)  # r, r, k
    assert set(rep.e6_degrees) == {2}  # k - 1
    assert rep.matchable_ok


def test_tdesign_a_triple_degrees():
    rep = check_conditions(tdesign_a_triple(catalog_lookup("sqs8"), 2))
    assert (rep.d_x, rep.d_y, rep.d_z) == (3, 3, 6)  # lambda_t0, lambda_t0, C(k,t0)
    assert set(rep.e6_degrees) == {1}  # C(k - t0, t0)
    assert rep.necessary_ok


def test_tdesign_b_triple_degrees():
    rep = check_conditions(tdesign_b_triple(complete_design(4, 2), 1, 1))
    assert (rep.d_x, rep.d_y, rep.d_z) == (3, 3, 2)
    assert set(rep.e6_degrees) == {1}
    assert rep.necessary_ok


def test_tdesign_lambda_triple_degrees():
    rep = check_conditions(tdesign_lambda_triple(catalog_lookup("fano"), 2, 1, 1))
    assert (rep.d_x, rep.d_y, rep.d_z) == (2, 2, 2)  # C(k-t1,t2), C(k-t2,t1), C(t0,t1)
    assert set(rep.e6_degrees) == {1}
    assert rep.necessary_ok
    t = tdesign_lambda_triple(catalog_lookup("fano"), 2, 1, 1)
    assert len(t.labels_x) == len(t.labels_y) == len(t.labels_z) == 21


def _pairwise_tdesign_lambda(design, t0: int, t1: int, t2: int) -> TripleSystem:
    """The flagged system from its definition, pair by pair.  Flags are
    (subset, containing block), subsets in combinations order, then blocks
    ascending.  Two flags are incident when their blocks are equal and their
    subsets are disjoint (row and symbol) or one holds the other (row or
    symbol in a column)."""
    def flags(size):
        return [(sub, i) for sub in itertools.combinations(range(design.v), size)
                for i, blk in enumerate(design.blocks) if set(sub) <= set(blk)]

    def relation(rows, cols, holds):
        col_sets = [(set(sub), i) for sub, i in cols]
        return tuple(sum(1 << j for j, (c, ci) in enumerate(col_sets)
                         if i == ci and holds(set(sub), c)) for sub, i in rows)

    xs, ys, zs = flags(t1), flags(t2), flags(t0)
    return TripleSystem(tuple(xs), tuple(ys), tuple(zs), relation(xs, ys, set.isdisjoint),
                        relation(xs, zs, set.issubset), relation(ys, zs, set.issubset))


@pytest.mark.parametrize("ref, t0, t1, t2", [*TDESIGN_L, ("complete:10:4", 2, 1, 1)])
def test_tdesign_lambda_triple_matches_its_pairwise_definition(ref, t0, t1, t2):
    spec = ConstructionSpec("tdesign-lambda", 1, design=ref, t0=t0, t1=t1, t2=t2)
    design = spec.resolved_design()
    assert tdesign_lambda_triple(design, t0, t1, t2) == _pairwise_tdesign_lambda(
        design, t0, t1, t2)


# --- closed forms vs frozen values ---------------------------------------


def test_pg_rows_frozen():
    for o in (1, 2, 3):
        assert _params(ConstructionSpec("pg", o, q=2, k=3, m=1, t=1)) == (7, 7, 4, 7)
    assert _params(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=2)) == (7, 7, 6, 1)
    assert _params(ConstructionSpec("pg", 1, q=3, k=4, m=2, t=2)) == (130, 130, 129, 1)
    row = closed_form_row(ConstructionSpec("pg", 2, q=2, k=3, m=1, t=2))
    assert not row.admissible and "Q=0" in row.note


def test_config_rows_frozen():
    for o in (1, 2, 3):
        assert _params(ConstructionSpec("config", o, design="fano")) == (7, 7, 4, 7)
    assert _params(ConstructionSpec("config", 3, design="td:3:3")) == (9, 9, 6, 9)
    assert _params(ConstructionSpec("config", 1, design="complete:5:2")) == (5, 5, 1, 10)


def test_tdesign_a_rows_frozen():
    for o in (1, 2, 3):
        assert _params(ConstructionSpec("tdesign-a", o, design="fano", t0=1)) == (7, 7, 4, 7)
    spec = lambda o: ConstructionSpec("tdesign-a", o, design="sqs8", t0=2)
    assert _params(spec(1)) == (28, 28, 25, 14)
    assert _params(spec(2)) == (28, 14, 11, 28)
    assert _params(spec(3)) == (14, 28, 22, 28)


def test_tdesign_b_rows_frozen():
    spec = lambda o: ConstructionSpec("tdesign-b", o, design="complete:4:2", t1=1, t2=1)
    assert _params(spec(1)) == (4, 4, 1, 6)
    assert _params(spec(2)) == (4, 6, 3, 4)
    assert _params(spec(3)) == (6, 4, 2, 4)


def test_tdesign_lambda_rows_frozen():
    spec = lambda o: ConstructionSpec("tdesign-lambda", o, design="complete:4:2",
                                      t0=2, t1=1, t2=1)
    assert _params(spec(1)) == (12, 12, 11, 6)
    assert _params(spec(2)) == (12, 6, 5, 12)
    assert _params(spec(3)) == (6, 12, 10, 12)
    fano = lambda o: ConstructionSpec("tdesign-lambda", o, design="fano",
                                      t0=2, t1=1, t2=1)
    for o in (1, 2, 3):
        assert _params(fano(o)) == (21, 21, 19, 21)


def test_invariants_equal_built_systems():
    # every distinct sweep system, so also orientations no array is emitted for
    for spec in dict.fromkeys(replace(s, orientation=1) for s in sweep_specs()):
        t = build_triple(spec)
        rep = check_conditions(t)
        assert _invariants(spec) == (len(t.labels_x), len(t.labels_y), len(t.labels_z),
                                     rep.d_x, rep.d_z), spec


def test_measured_matches_closed_form(sweep):
    for spec, row, p in sweep["built"]:
        assert (p.k, p.f, p.q, p.s) == (row.k, row.f, row.q, row.s), spec
        assert validate_pda(p).ok, spec


# The sweep builds pg only over q in {2, 3}; these are the other fields up to
# 9, kept out of conftest.sweep_specs because perfbench's sweep mirrors it.
@pytest.mark.parametrize("orientation", [1, 2, 3])
@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_pg_over_larger_fields(q, orientation):
    spec = ConstructionSpec("pg", orientation, q=q, k=3, m=1, t=1)
    p = construct_pda(spec)
    assert validate_pda(p).ok
    assert (p.k, p.f, p.q, p.s) == _params(spec)
    rep = verify_scheme(p, 2)
    assert rep.ok and rep.failures == []


def test_row_derived_quantities():
    row = closed_form_row(ConstructionSpec("pg", 1, q=2, k=3, m=1, t=1))
    assert row.mn == Fraction(4, 7) and row.rate == 1
    assert row.r_star == Fraction(3, 5) and row.f_mn == 35
    assert row.ratio == Fraction(5, 3)
    assert replace(row, r_star=None).ratio is None


# --- baselines ------------------------------------------------------------


def test_mn_baseline():
    assert mn_baseline(7, Fraction(4, 7)) == (Fraction(3, 5), 35)
    assert mn_baseline(4, Fraction(1, 4)) == (Fraction(3, 2), 4)
    assert mn_baseline(2, Fraction(1, 2)) == (Fraction(1, 2), 2)
    r_star, f_star = mn_baseline(3, Fraction(1, 2))
    assert r_star == Fraction(3, 5) and f_star is None
    assert mn_baseline(5, Fraction(0)) == (5, 1)
    assert mn_baseline(5, Fraction(1)) == (0, 1)
    with pytest.raises(ValueError):
        mn_baseline(0, Fraction(1, 2))
    with pytest.raises(ValueError):
        mn_baseline(3, Fraction(3, 2))


def test_binomial_is_exact_up_to_4300_digits():
    assert _binomial(14300, 6944) == comb(14300, 6944)  # 4300 digits
    assert _binomial(14300, 6945) == "~1.00e+4300"  # 4301 digits
    assert _binomial(14463, 7130) == "~1.00e+4351"  # 9.99866e+4350 rounds up
    assert _binomial(10 ** 8, 3) == comb(10 ** 8, 3)
    assert _binomial(10 ** 8, 3 * 10 ** 7) == "~3.14e+26529495"
    assert _binomial(2 ** 200, 2 ** 199).startswith("~9.62e+4837365524955702646129578850")


def test_configuration_rate_bound():
    rate, bound = configuration_rate_bound(7, 3, 3)
    assert rate == bound == 1
    rate, bound = configuration_rate_bound(9, 3, 3)
    assert rate == 1 and bound == Fraction(9, 11)
    assert rate > bound


def test_bibd_rate_identity():
    assert bibd_rate_identity(7, 3) == (1, 1)
    assert bibd_rate_identity(9, 3) == (Fraction(4, 3), Fraction(4, 3))
    assert bibd_rate_identity(13, 4) == (1, 1)
    with pytest.raises(ValueError, match="not an integer"):
        bibd_rate_identity(8, 3)
    with pytest.raises(ValueError, match=r"^no \(v,k,1\)-BIBD: b = 10/3 is not an integer$"):
        bibd_rate_identity(5, 3)


# --- dispatch -------------------------------------------------------------


def test_build_triple_dispatch():
    assert len(build_triple(ConstructionSpec("config", 1, design="fano")).labels_z) == 7
    assert len(build_triple(ConstructionSpec("tdesign-b", 1, design="complete:4:2",
                                             t1=1, t2=1)).labels_x) == 4


# complete:V:K with V <= 6, the named designs, td:K:N with N <= 4
DESIGN_REFS = ([f"complete:{v}:{k}" for v in range(2, 7) for k in range(1, v)]
               + ["sts:7", "sts:9", "fano", "sqs8", "affine-9"]
               + [f"td:{k}:{n}" for n in (2, 3, 4) for k in range(2, n + 2)])


def test_every_admissible_design_table_row_constructs():
    """What the closed form calls admissible, the builder builds, with the
    tabulated (K, F, Q, S)."""
    built = 0
    for ref, family in itertools.product(DESIGN_REFS, FAMILIES[1:]):
        try:
            table = design_table(family, ref)
        except ValueError:  # the design does not fit the family
            continue
        for row in filter(lambda row: row.admissible, table):
            extra = dict(kv.split("=") for kv in row.label.split(",")[1:])  # t0, t1, t2
            spec = ConstructionSpec(family, row.orientation, design=ref,
                                    **{name: int(v) for name, v in extra.items()})
            p = construct_pda(spec)
            assert (p.k, p.f, p.q, p.s) == (row.k, row.f, row.q, row.s), spec
            built += 1
    assert built == 267


def test_construct_pda_inadmissible_orientation(fresh_cells):
    # the same message whether the cells are built for it or held from set 1
    spec = ConstructionSpec("pg", 2, q=2, k=3, m=1, t=2)
    for held in (False, True):
        if held:
            construct_pda(replace(spec, orientation=1))
        with pytest.raises(ValueError, match="inadmissible") as exc:
            construct_pda(spec)
        assert str(exc.value) == ("orientation 2 of pg (q=2,k=3,m=1,t=2) is inadmissible: "
                                  "degenerate array: some column has no stars (Q = 0)")


def test_a_design_given_list_parameters_constructs_as_with_tuples():
    fano = catalog_lookup("fano")
    listed = Design(fano.v, fano.blocks, t_params=list(fano.t_params),
                    config_params=list(fano.config_params))
    assert listed == fano and hash(listed) == hash(fano)
    assert (construct_pda(ConstructionSpec("config", 2, design=listed))
            == construct_pda(ConstructionSpec("config", 2, design=fano)))


def test_construct_pda_stats(monkeypatch, fresh_cells):
    """Stage seconds and RSS for the stages that ran (match split into its
    scan and its matching), sizes and ones of the built matrices, column
    keys and Kuhn runs; reused from the second orientation of a system on.
    With stats=None nothing is timed."""
    stages = ("build", "scan", "cells", "match", "emit")
    stage_keys = {f"{stage}_{what}" for stage in stages for what in ("s", "rss_mb")}
    specs = [ConstructionSpec("pg", o, q=q, k=4, m=1, t=1) for q in (2, 3) for o in (1, 2, 3)]
    reused = []
    for spec in specs:
        stats = {}
        p = construct_pda(spec, stats)
        assert set(stats) == stage_keys | {"reused", "size_x", "size_y", "size_z", "nnz_xy",
                                           "nnz_xz", "nnz_yz", "column_keys", "kuhn_runs"}
        reused.append(stats["reused"])
        ran = {"emit"} if stats["reused"] else set(stages)
        for stage in stages:
            took, rss = stats[f"{stage}_s"], stats[f"{stage}_rss_mb"]
            if stage in ran:
                assert type(took) is float and took > 0 and type(rss) is float and rss > 0
            else:
                assert took is None and rss is None
        if not stats["reused"]:  # match is the scan and the matching, timed apart
            assert stats["match_s"] == stats["scan_s"] + stats["cells_s"]
            assert stats["match_rss_mb"] == stats["cells_rss_mb"] >= stats["scan_rss_mb"]
        t = build_triple(spec)
        assert (stats["size_x"], stats["size_y"], stats["size_z"]) == tuple(
            map(len, (t.labels_x, t.labels_y, t.labels_z)))
        assert (stats["nnz_xy"], stats["nnz_xz"], stats["nnz_yz"]) == tuple(
            sum(map(int.bit_count, rows)) for rows in (t.xy, t.xz, t.yz))
        assert stats["column_keys"] == 1  # a pg system has one column graph
        assert stats["kuhn_runs"] == (0 if stats["reused"] else 1)
        assert p == construct_pda(spec, None)
    assert reused == [False, True, True, False, True, True]

    monkeypatch.setattr(constructions, "time", None)  # any timing raises AttributeError
    constructions._held = None
    for spec in specs:
        construct_pda(spec)
    with pytest.raises(AttributeError):
        construct_pda(specs[0], {})


def test_a_catalog_design_is_certified_once_per_call(monkeypatch, fresh_cells):
    calls = []
    real = constructions.certify_t_design

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "certify_t_design", count)
    monkeypatch.setattr(designs, "certify_t_design", count)
    spec = ConstructionSpec("tdesign-a", 1, design="sqs8", t0=2)
    for fn in (construct_pda, closed_form_row):
        calls.clear()
        fn(spec)
        assert calls == [(spec.resolved_design(), 3, 8, 4, 1)], fn


def test_cross_family_agreement():
    a = closed_form_row(ConstructionSpec("config", 1, design="fano"))
    b = closed_form_row(ConstructionSpec("tdesign-a", 1, design="fano", t0=1))
    assert (a.k, a.f, a.mn, a.rate) == (b.k, b.f, b.mn, b.rate) == (7, 7, Fraction(4, 7), 1)
    row = closed_form_row(ConstructionSpec("tdesign-b", 1, design="complete:4:2",
                                           t1=1, t2=1))
    assert row.rate == row.r_star == Fraction(3, 2)
    assert row.f == row.f_mn == 4


# --- special cases as arrays: the two Fano arrays are one array -----------


def _same_array(a: Pda, b: Pda) -> bool:
    """Equal grids once symbols are renumbered in first-occurrence order."""
    return format_pda(canonical_relabel(a)) == format_pda(canonical_relabel(b))


def _swap_one_star_in_grid(p: Pda) -> Pda:
    """p with its first star and first symbol of column 0 exchanged."""
    grid = [list(row) for row in p.grid]
    star = next(i for i, row in enumerate(grid) if row[0] == STAR)
    coded = next(i for i, row in enumerate(grid) if row[0] != STAR)
    grid[star][0], grid[coded][0] = grid[coded][0], STAR
    return Pda(p.k, p.f, p.q, p.s, tuple(map(tuple, grid)))


@pytest.mark.parametrize("orientation", [1, 2, 3])
def test_config_and_tdesign_a_on_fano_build_one_array(orientation):
    # on the Fano plane, points and their 1-subsets give the same system
    config = construct_pda(ConstructionSpec("config", orientation, design="fano"))
    one_subsets = construct_pda(ConstructionSpec("tdesign-a", orientation,
                                                 design="fano", t0=1))
    assert (config.k, config.f, config.q, config.s) == (7, 7, 4, 7)
    assert _same_array(config, one_subsets)
    assert not _same_array(config, _swap_one_star_in_grid(one_subsets))


# --- special cases as arrays: tdesign-b on complete:v:k is the MN scheme ----


def _mn_reference(v: int, t: int) -> dict:
    """The MN PDA in the Yan et al. form, as {(T, u): cell}: a row per
    t-subset T of the v users, a star where u is in T, else the symbol T + {u}."""
    return {(rows, u): STAR if u in rows else rows | {u}
            for rows in map(frozenset, itertools.combinations(range(v), t))
            for u in range(v)}


def _equals_reference(p, row_sets, users, ref) -> bool:
    """Whether p is ref once row j is read as the set row_sets[j] and column k
    as user users[k], with p's symbols mapped one to one onto ref's."""
    if {(r, u) for r in row_sets for u in users} != ref.keys() or p.f * p.k != len(ref):
        return False
    to_ref = {}
    for r, row in zip(row_sets, p.grid):
        for u, cell in zip(users, row):
            want = ref[r, u]
            if (cell == STAR) != (want == STAR) or (
                    cell != STAR and to_ref.setdefault(cell, want) != want):
                return False
    return len(to_ref) == len(set(to_ref.values())) == p.s


def _swap_one_star(ref: dict) -> dict:
    """ref with a star and a symbol of user 0's column exchanged."""
    star = next(key for key, cell in ref.items() if key[1] == 0 and cell == STAR)
    coded = next(key for key, cell in ref.items() if key[1] == 0 and cell != STAR)
    return {**ref, star: ref[coded], coded: STAR}


# Every complete:v:k with v <= 12 and 2 <= k <= min(8, v - 1); the largest
# builds in about 0.02 s.
MN_CASES = [(v, k) for v in range(3, 13) for k in range(2, min(8, v - 1) + 1)]


@pytest.mark.parametrize("v, k", MN_CASES)
def test_tdesign_b_on_complete_designs_is_the_mn_array(v, k):
    """tdesign-b with t1 = 1 is MN with t = k - 1 in orientation 1 and with
    t = v - k in orientation 2.  The triple labels give the bijection: in
    orientation 1 the rows are (k-1)-subsets; in orientation 2 they are
    blocks, read as their complements.  Columns are the 1-subsets."""
    spec = ConstructionSpec("tdesign-b", 1, design=f"complete:{v}:{k}", t1=1, t2=k - 1)
    blocks = spec.resolved_design().blocks
    everyone = frozenset(range(v))
    matched = complete_matching(build_triple(spec))
    for o, t, rows_of in ((1, k - 1, frozenset),
                          (2, v - k, lambda b: everyone - frozenset(blocks[b]))):
        oriented = orientations(matched)[o - 1]
        p = construct_pda(replace(spec, orientation=o))
        row_sets = [rows_of(x) for x in oriented.labels_x]
        users = [u for (u,) in oriented.labels_z]
        ref = _mn_reference(v, t)
        assert _equals_reference(p, row_sets, users, ref)
        assert not _equals_reference(p, row_sets, users, _swap_one_star(ref))
