"""The package's public names."""

import altfrob


def test_every_exported_name_resolves():
    missing = [name for name in altfrob.__all__ if not hasattr(altfrob, name)]
    assert not missing
    assert len(set(altfrob.__all__)) == len(altfrob.__all__)


def test_alternant_layer_stays_exported():
    for name in ("schur_poly", "bialternant_reduce", "alternant", "vandermonde"):
        assert name in altfrob.__all__
        assert callable(getattr(altfrob, name))
