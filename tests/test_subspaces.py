import itertools

import pytest

from pdakit.gf import FieldSpec
import gc
import weakref

from pdakit import ConstructionSpec, construct_pda
import pdakit.constructions
from pdakit.constructions import build_triple
from pdakit.subspaces import (Subspace, enumerate_subspaces, gaussian_binomial,
                              rref, span, subspace_counts, subspaces_and_masks)

F2 = FieldSpec.for_order(2)
F3 = FieldSpec.for_order(3)
F5 = FieldSpec.for_order(5)


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 3, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 1, 3) == 40
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(6, 0, 2) == 1


def test_gaussian_binomial_independent_oracle():
    # count RREF shapes directly: each pivot set contributes q^(free slots)
    def count(l, m, q):
        total = 0
        for pivots in itertools.combinations(range(l), m):
            free = sum(1 for i, p in enumerate(pivots)
                       for j in range(p + 1, l) if j not in pivots)
            total += q ** free
        return total

    for q in (2, 3, 4):
        for l in range(7):
            for m in range(l + 1):
                assert gaussian_binomial(l, m, q) == count(l, m, q)


def test_gaussian_binomial_symmetry_and_pascal():
    for q in (2, 3, 4):
        for l in range(1, 7):
            for m in range(l + 1):
                assert gaussian_binomial(l, m, q) == gaussian_binomial(l, l - m, q)
                if 1 <= m <= l - 1:
                    lhs = gaussian_binomial(l, m, q)
                    rhs = (gaussian_binomial(l - 1, m - 1, q)
                           + q ** m * gaussian_binomial(l - 1, m, q))
                    assert lhs == rhs


def test_gaussian_binomial_accepts_field_spec():
    assert gaussian_binomial(4, 2, F2) == 35


def test_gaussian_binomial_bad_args():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 1)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 2)


def test_rref_examples():
    rows, pivots = rref(F2, [(1, 1, 0), (0, 1, 1)])
    assert rows == ((1, 0, 1), (0, 1, 1))
    assert pivots == (0, 1)

    rows, pivots = rref(F5, [(2, 4), (1, 2)])
    assert rows == ((1, 2),)
    assert pivots == (0,)

    assert rref(F2, []) == ((), ())
    assert rref(F3, [(0, 0, 0)]) == ((), ())


def test_rref_idempotent():
    cases = [[(1, 2, 0), (2, 1, 1), (0, 1, 2)], [(1, 1, 1)], [(2, 2, 2), (1, 1, 1)]]
    for rows in cases:
        once, piv1 = rref(F3, rows)
        twice, piv2 = rref(F3, once)
        assert once == twice and piv1 == piv2


def test_rref_ragged_rows_rejected():
    with pytest.raises(ValueError):
        rref(F2, [(1, 0), (1, 0, 1)])


def test_subspace_validation():
    Subspace(F2, 3, ((1, 0, 1), (0, 1, 1)))  # fine
    with pytest.raises(ValueError):
        Subspace(F2, 3, ((0, 1, 1), (1, 0, 1)))  # pivots out of order
    with pytest.raises(ValueError):
        Subspace(F3, 3, ((2, 0, 1),))  # pivot entry not 1
    with pytest.raises(ValueError):
        Subspace(F2, 3, ((1, 0, 1), (0, 0, 0)))  # zero row
    with pytest.raises(ValueError):
        Subspace(F2, 3, ((1, 1, 0), (0, 1, 1)))  # pivot column not cleared
    with pytest.raises(ValueError):
        Subspace(F2, 3, ((1, 0, 2),))  # entry outside the field
    with pytest.raises(ValueError):
        Subspace(F2, 2, ((1, 0, 1),))  # row too long


def test_span_canonicalizes():
    s = span(F2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])  # third is dependent
    assert s.dim == 2
    assert s == span(F2, 3, [(0, 1, 1), (1, 1, 0)])
    assert span(F2, 3, [(0, 0, 0)]).dim == 0
    with pytest.raises(ValueError):
        span(F2, 3, [(1, 0)])


def test_contains_and_trivial_intersection():
    plane = span(F2, 3, [(1, 0, 0), (0, 1, 0)])
    line_in = span(F2, 3, [(1, 1, 0)])
    line_out = span(F2, 3, [(0, 0, 1)])
    assert plane.contains(line_in)
    assert not plane.contains(line_out)
    assert not line_in.contains(plane)
    assert line_in.intersects_trivially(line_out)
    assert not plane.intersects_trivially(line_in)
    other_plane = span(F2, 3, [(1, 0, 1), (0, 1, 1)])
    # two planes in a 3-space always share a line
    assert not plane.intersects_trivially(other_plane)
    with pytest.raises(ValueError):
        plane.contains(span(F2, 4, [(1, 0, 0, 0)]))


def test_points_mask():
    # vector v is bit v[0] + 3 v[1]: (0, 0), (1, 2), (2, 1) are bits 0, 7, 5
    line = span(F3, 2, [(1, 2)])
    assert line.points_mask() == 1 | 1 << 7 | 1 << 5
    assert span(F2, 3, [(1, 0, 0), (0, 1, 0)]).points_mask() == 0b1111


# every field the library supports, each with the largest ambient dimension
# its enumerator tests run at
SMALL_SPACES = ((2, 5), (3, 4), (4, 3), (5, 3), (7, 3), (8, 3), (9, 3))


def _tuple_points_mask(s: Subspace) -> int:
    """Reference: every vector of the span built as a digit tuple, then
    indexed as sum(v[i] * q**i)."""
    f, els = s.field, s.field.elements()
    vectors = [(0,) * s.ambient]
    for row in s.basis:
        multiples = [[f.mul(c, b) for b in row] for c in els]
        vectors = [tuple(f.add(a, b) for a, b in zip(v, w)) for v in vectors for w in multiples]
    return sum(1 << sum(a * f.q ** i for i, a in enumerate(v)) for v in vectors)


def test_points_mask_equals_tuple_reference():
    # F_2, F_4 and F_8 take the XOR path with e-bit digits, the odd fields
    # the column-wise one; the enumerator's masks and points_mask() agree
    for q, top in SMALL_SPACES:
        field = FieldSpec.for_order(q)
        for ambient in range(top + 1):
            for dim in range(ambient + 1):
                labels, masks = subspaces_and_masks(field, ambient, dim)
                for s, mask in zip(labels, masks):
                    assert mask == s.points_mask() == _tuple_points_mask(s), (q, s.basis)
                    assert mask.bit_count() == q ** dim


def test_points_mask_meets_and_containment_agree_with_rref():
    for field in (F3, FieldSpec.for_order(4)):
        lines = enumerate_subspaces(field, 3, 1)
        planes = enumerate_subspaces(field, 3, 2)
        for a in lines + planes:
            for b in lines + planes:
                ma, mb = a.points_mask(), b.points_mask()
                assert (ma & mb == 1) == a.intersects_trivially(b)
                assert (ma & mb == ma) == b.contains(a)


def test_enumerated_bases_pass_the_public_constructor():
    # enumerate_subspaces builds its labels unchecked, after one check per
    # pivot pattern; subspaces_and_masks yields the same labels
    for q, top in SMALL_SPACES:
        field = FieldSpec.for_order(q)
        for ambient in range(top + 1):
            for dim in range(ambient + 1):
                subs = enumerate_subspaces(field, ambient, dim)
                assert len(subs) == gaussian_binomial(ambient, dim, q)
                assert subspaces_and_masks(field, ambient, dim)[0] == subs
                for s in subs:
                    assert Subspace(field, ambient, s.basis) == s


def test_mutated_enumerated_bases_still_raise():
    for q, top in SMALL_SPACES:
        field = FieldSpec.for_order(q)
        for dim in (1, 2):
            for s in enumerate_subspaces(field, top, dim):
                rows = [list(r) for r in s.basis]
                pivots = [r.index(1) for r in rows]

                def mutated(i, j, v):
                    bad = [list(r) for r in rows]
                    bad[i][j] = v
                    return tuple(map(tuple, bad))

                free = [(i, j) for i in range(dim) for j in range(pivots[i] + 1, top)
                        if j not in pivots]
                for i, j in free[:2]:
                    with pytest.raises(ValueError, match="outside the field"):
                        Subspace(field, top, mutated(i, j, q))
                    with pytest.raises(ValueError, match="outside the field"):
                        Subspace(field, top, mutated(i, j, -1))
                if q > 2:
                    with pytest.raises(ValueError, match="pivot entry must be 1"):
                        Subspace(field, top, mutated(0, pivots[0], 2))
                if dim == 2:
                    with pytest.raises(ValueError, match="another row's pivot column"):
                        Subspace(field, top, mutated(0, pivots[1], 1))


class _LeakyField(FieldSpec):
    """A field whose element list holds one value past the field."""

    def elements(self) -> range:
        return range(self.q + 1)


def test_enumerator_checks_free_entries_against_the_field():
    for q in (2, 3, 4):
        with pytest.raises(ValueError, match="basis entry outside the field"):
            enumerate_subspaces(_LeakyField.for_order(q), 3, 1)
    for q in (2, 3):  # prime fields multiply the extra value without a table
        with pytest.raises(ValueError, match="basis entry outside the field"):
            subspaces_and_masks(_LeakyField.for_order(q), 3, 2)


def test_no_subspace_outlives_its_system(monkeypatch, fresh_cells):
    # points masks come with the labels, and nothing in pdakit caches a
    # subspace, points_mask() included: a label is freed with the system
    # that holds it
    for q in (2, 3):
        system = build_triple(ConstructionSpec("pg", 1, q=q, k=4, m=1, t=2))
        label = weakref.ref(system.labels_z[-1])
        assert label().points_mask().bit_count() == q ** 3
        del system
        gc.collect()
        assert label() is None, q

    labels = []
    real = pdakit.constructions.build_triple

    def build(spec):
        t = real(spec)
        labels.append(weakref.ref(t.labels_y[0]))
        return t

    monkeypatch.setattr(pdakit.constructions, "build_triple", build)
    construct_pda(ConstructionSpec("pg", 2, q=3, k=3, m=1, t=1))
    gc.collect()
    assert labels and labels[0]() is None


def test_enumeration_counts_and_uniqueness():
    for field, ambient, dim, expect in [(F2, 3, 1, 7), (F2, 4, 2, 35),
                                        (F3, 3, 1, 13), (F3, 3, 2, 13),
                                        (F2, 3, 0, 1), (F2, 3, 3, 1)]:
        subs = enumerate_subspaces(field, ambient, dim)
        assert len(subs) == expect == gaussian_binomial(ambient, dim, field)
        assert len(set(subs)) == expect
        assert all(s.dim == dim for s in subs)


def test_enumeration_order_is_frozen():
    subs = enumerate_subspaces(F2, 2, 1)
    assert [s.basis for s in subs] == [((1, 0),), ((1, 1),), ((0, 1),)]


def test_enumeration_bad_dim():
    with pytest.raises(ValueError):
        enumerate_subspaces(F2, 3, 4)


def test_subspace_counts_examples():
    # lines of F_2^3 meeting a fixed line only at zero: all 6 others
    assert subspace_counts(2, 3, 1, 0, 1) == (7, 7, 6)
    # lines inside a fixed plane equal to a fixed line of it: just that line
    assert subspace_counts(2, 3, 1, 1, 2) == (7, 1, 1)
    # planes of F_2^4 through a fixed line (t = s, so the c count matches b)
    assert subspace_counts(2, 4, 2, 1, 1) == (35, 7, 7)
    # impossible shape: a 2-space avoiding a 3-space inside F_2^4
    assert subspace_counts(2, 4, 2, 0, 3)[2] == 0
    # a field spec counts as its order
    assert subspace_counts(F2, 4, 2, 1, 1) == subspace_counts(2, 4, 2, 1, 1)


def test_subspace_counts_free_pair_degree():
    # m-spaces meeting a fixed t-space trivially number q^(mt) * [k-t, m]
    for q in (2, 3):
        for k in range(1, 5):
            for m in range(k + 1):
                for t in range(k - m + 1):
                    _, _, c = subspace_counts(q, k, m, 0, t)
                    assert c == q ** (m * t) * gaussian_binomial(k - t, m, q)


def test_subspace_counts_bad_args():
    with pytest.raises(ValueError):
        subspace_counts(2, 3, 4, 0, 1)
    with pytest.raises(ValueError):
        subspace_counts(2, 3, 2, 3, 2)
