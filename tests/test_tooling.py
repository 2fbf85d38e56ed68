def test_strict_markers_enabled(pytestconfig):
    # a mistyped mark must fail at collection, not just warn
    assert pytestconfig.getini("strict_markers") is True
