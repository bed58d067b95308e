import toruslab


def test_star_import_gives_every_export():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from toruslab import *", namespace)
    assert set(toruslab.__all__) <= set(namespace)
