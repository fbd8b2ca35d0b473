"""Shared desk-scale construction sweep.

Every family and every orientation gets built once per session (q in {2,3},
k <= 4 for the geometry family; designs with at most 13 points).  Tests treat
the resulting arrays as read-only.
"""

import itertools

import pytest

import pdakit.constructions
from pdakit import (ConstructionSpec, TripleSystem, closed_form_row, construct_pda,
                    direct_product, parse_pda, pda_to_triple, triple_to_pda)
from pdakit.designs import as_t_design, complete_design
from pdakit.sim import DecodeError, decode, deliver
from pdakit.triples import set_bits

TINY = parse_pda("2 2 1 1\n* 1\n1 *\n")

CONFIG_REFS = ("fano", "td:2:2", "td:3:3", "td:4:3", "affine-9", "sts:13",
               "complete:4:2", "complete:5:2")
TDESIGN_A = (("fano", 1), ("affine-9", 1), ("sts:13", 1), ("sqs8", 2))
TDESIGN_B = (("complete:4:2", 1, 1), ("complete:5:2", 1, 1),
             ("complete:5:3", 1, 2), ("complete:5:3", 2, 1),
             ("complete:6:3", 1, 2))
_BIBD_5_3_3 = as_t_design(complete_design(5, 3), 2)  # retagged as a 2-(5,3,3)
TDESIGN_L = (("fano", 2, 1, 1), ("complete:4:2", 2, 1, 1),
             ("affine-9", 2, 1, 1), ("sqs8", 2, 1, 1), ("sqs8", 3, 1, 2),
             (_BIBD_5_3_3, 2, 1, 1))


def sweep_specs() -> list[ConstructionSpec]:
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
        for o in (1, 2, 3):
            out.append(ConstructionSpec("tdesign-lambda", o, design=ref,
                                        t0=t0, t1=t1, t2=t2))
    return out


def build_sweep():
    """(spec, closed-form row, constructed array) for every admissible spec."""
    built = []
    for spec in sweep_specs():
        row = closed_form_row(spec)
        if not row.admissible:
            continue
        built.append((spec, row, construct_pda(spec)))
    return built


def _find(built, family, orientation, **kw):
    for spec, _, p in built:
        if (spec.family == family and spec.orientation == orientation
                and all(getattr(spec, key) == val for key, val in kw.items())):
            return p
    raise LookupError(f"{family} set {orientation} {kw} not in sweep")


def product_cases(built):
    """Fixed factor pairs exercising the componentwise product."""
    pg7 = _find(built, "pg", 1, q=2, k=3, m=1, t=1)
    tb4 = _find(built, "tdesign-b", 1, design="complete:4:2")
    return [("tiny*tiny", TINY, TINY), ("pg7*tiny", pg7, TINY),
            ("pg7*pg7", pg7, pg7), ("tb4*tiny", tb4, TINY)]


@pytest.fixture
def fresh_cells():
    """construct_pda's held system (constructions._held), emptied before and
    after the test: a test that patches a pipeline stage sees every stage
    run, and leaves no cells built under its patch."""
    pdakit.constructions._held = None
    yield
    pdakit.constructions._held = None


@pytest.fixture(scope="session")
def sweep():
    built = build_sweep()
    products = [(name, a, b, direct_product(a, b))
                for name, a, b in product_cases(built)]
    return {"built": built, "products": products}


def all_pdas(sweep) -> list:
    return ([p for _, _, p in sweep["built"]]
            + [prod for _, _, _, prod in sweep["products"]] + [TINY])


def triple_route_product(a, b):
    """Reference for direct_product: the componentwise product of the three
    incidence matrices, read back as an array.  Entry ((i1, i2), (j1, j2))
    of a product matrix is entry (i1, j1) of a's AND entry (i2, j2) of b's;
    row (i1, i2) is row i2 of b's shifted to each column block j1 of row i1
    of a's."""
    ta, tb = pda_to_triple(a), pda_to_triple(b)

    def pairs(la, lb):
        return tuple((x, y) for x in la for y in lb)

    def product(ma, mb, width):  # width: mb's columns
        return tuple(sum(rb << j * width for j in set_bits(ra)) for ra in ma for rb in mb)

    ny, nz = len(tb.labels_y), len(tb.labels_z)
    return triple_to_pda(TripleSystem(
        pairs(ta.labels_x, tb.labels_x), pairs(ta.labels_y, tb.labels_y),
        pairs(ta.labels_z, tb.labels_z), product(ta.xy, tb.xy, ny),
        product(ta.xz, tb.xz, nz), product(ta.yz, tb.yz, nz)))


def decode_failures(p, lib, caches, n: int) -> list:
    """Every (demand, user), demand-major over all n^K demands, for which
    `deliver` then `decode` on these caches raises DecodeError or returns a
    wrong file: the reference that `verify_scheme`'s failures must equal."""
    out = []
    for demand in itertools.product(range(n), repeat=p.k):
        tx = deliver(p, lib, demand)
        for user in range(p.k):
            try:
                good = decode(p, caches[user], tx, demand, user) == lib.file(demand[user])
            except DecodeError:
                good = False
            if not good:
                out.append((demand, user))
    return out
