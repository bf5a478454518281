"""The package's public namespace."""

import moranset


def test_all_names_resolve_once():
    names = moranset.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(moranset, name), name
