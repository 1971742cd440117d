"""Package namespace: the public names exported by ``trigzero``."""

import types

import trigzero


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(trigzero.__all__)) == len(trigzero.__all__)
    for name in trigzero.__all__:
        assert not isinstance(getattr(trigzero, name), types.ModuleType), name
