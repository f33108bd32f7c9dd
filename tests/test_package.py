"""The package's public surface."""

import interlock


def test_every_public_name_resolves():
    assert [name for name in interlock.__all__ if not hasattr(interlock, name)] == []
    namespace = {}
    exec("from interlock import *", namespace)
    assert set(interlock.__all__) <= set(namespace)
