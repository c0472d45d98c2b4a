import clubval


def test_every_exported_name_resolves():
    # A function removed from the package but left in __all__ breaks
    # `from clubval import *` with an AttributeError.
    assert [name for name in clubval.__all__ if not hasattr(clubval, name)] == []
    namespace: dict = {}
    exec("from clubval import *", namespace)
    assert set(clubval.__all__) <= namespace.keys()
