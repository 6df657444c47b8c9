"""The package's public surface."""

import types

import odl


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {
        name
        for name, value in vars(odl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(odl.__all__) == len(set(odl.__all__))
    assert set(odl.__all__) == bound
