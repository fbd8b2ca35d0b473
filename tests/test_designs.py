import pytest

from pdakit.designs import (_CATALOG, Design, as_t_design, catalog_lookup,
                            certify_configuration,
                            certify_t_design, complete_design, design_from_json,
                            design_to_json, from_reference, lambda_s,
                            steiner_triple_system, transversal_design)


def test_lambda_s_values():
    assert [lambda_s(2, 7, 3, 1, s) for s in (0, 1, 2)] == [7, 3, 1]
    assert [lambda_s(3, 8, 4, 1, s) for s in (0, 1, 2, 3)] == [14, 7, 3, 1]
    assert lambda_s(2, 5, 3, 3, 1) == 6


def test_lambda_s_rejects_fractional():
    # a 2-(8,3,1) design would need lambda_1 = 7/2
    with pytest.raises(ValueError, match="not an integer"):
        lambda_s(2, 8, 3, 1, 1)
    with pytest.raises(ValueError):
        lambda_s(3, 7, 3, 1, 4)  # s > t


def test_design_canonicalization():
    d = Design(4, ((2, 1, 0), (3, 0, 1)))
    assert d.blocks == ((0, 1, 2), (0, 1, 3))
    assert d.b == 2
    # duplicate blocks survive canonicalization (caught later by certifiers)
    assert Design(3, ((0, 1), (1, 0))).blocks == ((0, 1), (0, 1))


def test_design_rejects_malformed_blocks():
    with pytest.raises(ValueError):
        Design(3, ((),))
    with pytest.raises(ValueError):
        Design(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        Design(3, ((0, 3),))
    with pytest.raises(ValueError):
        Design(0, ())


def test_certify_configuration_fano():
    fano = catalog_lookup("fano")
    assert certify_configuration(fano, 7, 3, 7, 3).ok
    assert not certify_configuration(fano, 7, 4, 7, 3).ok
    bad = certify_configuration(fano, 8, 3, 7, 3)
    assert bad.condition == "point-count"


def test_certify_configuration_catches_repeated_pair():
    d = Design(2, ((0, 1), (0, 1)))
    cert = certify_configuration(d, 2, 2, 2, 2)
    assert not cert.ok and cert.condition == "pair-repeated"


def test_certify_configuration_block_shape():
    d = Design(4, ((0, 1), (2, 3), (0, 2)))
    assert certify_configuration(d, 4, 2, 4, 2).condition == "block-count"
    mixed = Design(4, ((0, 1, 2), (0, 3)))
    assert certify_configuration(mixed, 4, 2, 2, 2).condition == "block-size"


def test_certify_t_design_fano():
    fano = catalog_lookup("fano")
    assert certify_t_design(fano, 2, 7, 3, 1).ok
    assert certify_t_design(fano, 2, 7, 3, 2).condition == "coverage"
    assert certify_t_design(fano, 2, 8, 3, 1).condition == "point-count"
    dropped = Design(7, fano.blocks[1:])
    assert certify_t_design(dropped, 2, 7, 3, 1).condition == "coverage"


def test_certify_t_design_precondition():
    fano = catalog_lookup("fano")
    with pytest.raises(ValueError):
        certify_t_design(fano, 4, 7, 3, 1)  # t > k
    with pytest.raises(ValueError):
        certify_t_design(fano, 2, 7, 3, 0)


def test_complete_design():
    d = complete_design(4, 2)
    assert d.b == 6
    assert d.t_params == (2, 4, 2, 1)
    assert d.config_params == (4, 3, 6, 2)
    assert certify_configuration(d, 4, 3, 6, 2).ok
    d53 = complete_design(5, 3)
    assert d53.b == 10 and d53.t_params == (3, 5, 3, 1)
    assert d53.config_params is None
    with pytest.raises(ValueError):
        complete_design(4, 4)
    with pytest.raises(ValueError):
        complete_design(3, 0)
    # the builder does not certify what it builds, so certify every small one here
    for v in range(2, 9):
        for k in range(1, v):
            d = complete_design(v, k)
            assert d.t_params == (k, v, k, 1) and certify_t_design(d, k, v, k, 1).ok
            assert (d.config_params is not None) == (k == 2)
            if k == 2:
                assert certify_configuration(d, *d.config_params).ok


@pytest.mark.parametrize("v", (7, 9, 13, 15, 19, 21, 25, 27))
def test_steiner_triple_systems(v):
    d = steiner_triple_system(v)
    assert d.b == v * (v - 1) // 6
    assert certify_t_design(d, 2, v, 3, 1).ok


@pytest.mark.parametrize("v", (5, 6, 11, 8))
def test_steiner_triple_system_bad_orders(v):
    with pytest.raises(ValueError):
        steiner_triple_system(v)


@pytest.mark.parametrize("k,n", ((2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (3, 4),
                                 (5, 4), (4, 5)))
def test_transversal_designs(k, n):
    d = transversal_design(k, n)
    assert d.v == k * n and d.b == n * n
    assert certify_configuration(d, k * n, n, n * n, k).ok
    # blocks hit each point group exactly once
    for blk in d.blocks:
        assert sorted(p // n for p in blk) == list(range(k))


def test_transversal_design_bad_args():
    with pytest.raises(ValueError):
        transversal_design(5, 3)  # k > n + 1
    with pytest.raises(ValueError):
        transversal_design(1, 3)
    with pytest.raises(ValueError):
        transversal_design(3, 6)  # no field of order 6


def test_catalog():
    for name, params in (("fano", (2, 7, 3, 1)), ("sqs8", (3, 8, 4, 1)),
                         ("affine-9", (2, 9, 3, 1))):
        d = catalog_lookup(name)
        assert d.t_params == params
        assert certify_t_design(d, *params).ok
    with pytest.raises(ValueError, match="unknown catalog design"):
        catalog_lookup("petersen")


def test_catalog_designs_certify_as_declared():
    # catalog_lookup does not certify its constant designs; this does, once
    # per parameter set each one declares
    for name, make in _CATALOG.items():
        d = make()
        assert d.t_params or d.config_params, name
        if d.t_params:
            assert certify_t_design(d, *d.t_params).ok, name
        if d.config_params:
            assert certify_configuration(d, *d.config_params).ok, name


def test_sqs8_shape():
    d = catalog_lookup("sqs8")
    assert d.b == 14
    assert all(b[0] ^ b[1] ^ b[2] ^ b[3] == 0 for b in d.blocks)


def test_blocks_containing_matches_lambda_s():
    d = catalog_lookup("sqs8")

    def covering(subset):
        return sum(set(subset) <= set(blk) for blk in d.blocks)

    assert covering((0,)) == lambda_s(3, 8, 4, 1, 1)
    assert covering((0, 1)) == lambda_s(3, 8, 4, 1, 2)
    assert covering((0, 1, 2)) == 1
    assert covering(()) == d.b == 14


def test_as_t_design():
    d = as_t_design(catalog_lookup("sqs8"), 2)
    assert d.t_params == (2, 8, 4, 3)
    assert certify_t_design(d, 2, 8, 4, 3).ok
    with pytest.raises(ValueError):
        as_t_design(d, 3)  # can't go back up
    with pytest.raises(ValueError):
        as_t_design(Design(3, ((0, 1),)), 1)


def test_from_reference():
    assert from_reference("fano").v == 7
    assert from_reference("complete:4:2").b == 6
    assert from_reference("sts:9").v == 9
    assert from_reference("td:3:3").v == 9
    for bad in ("complete:4", "sts:x", "nope", "td:3:3:3"):
        with pytest.raises(ValueError):
            from_reference(bad)
    # ASCII decimals only, as in the PDA grammar; int() reads each of these
    for bad in ("complete:\u0664:2", "complete:+4:2", "complete: 4:2", "complete:4_0:2",
                "td:3:\uff13", "sts:\u0669"):
        with pytest.raises(ValueError, match="malformed design reference"):
            from_reference(bad)


def test_json_round_trip():
    for d in (catalog_lookup("fano"), catalog_lookup("sqs8"),
              transversal_design(3, 3), Design(3, ((0, 1), (1, 2)))):
        assert design_from_json(design_to_json(d)) == d


def test_json_tags_preserved():
    obj = design_to_json(catalog_lookup("fano"))
    assert obj["tag"]["t-design"] == {"t": 2, "v": 7, "k": 3, "lambda": 1}
    assert obj["tag"]["configuration"] == {"v": 7, "r": 3, "b": 7, "k": 3}
    plain = design_to_json(Design(3, ((0, 1),)))
    assert "tag" not in plain


def test_json_malformed():
    with pytest.raises(ValueError):
        design_from_json({"blocks": [[0, 1]]})
    with pytest.raises(ValueError):
        design_from_json({"v": 3, "blocks": "xy"})


@pytest.mark.parametrize("tag", [[], "x", None, 5, [["t-design", {}]]])
def test_json_tag_must_be_an_object(tag):
    """A tag that is not an object is refused, not read as "no parameters"."""
    with pytest.raises(ValueError, match="malformed design object: tag must be an object"):
        design_from_json({"v": 3, "blocks": [[0, 1]], "tag": tag})
    assert design_from_json({"v": 3, "blocks": [[0, 1]], "tag": {}}) == Design(3, ((0, 1),))
