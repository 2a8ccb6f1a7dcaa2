import types

import centerfocus


def test_star_import_binds_every_name_the_root_imports():
    namespace = {}
    exec("from centerfocus import *", namespace)
    assert "radial_power" in namespace
    assert len(set(centerfocus.__all__)) == len(centerfocus.__all__)
    for name in centerfocus.__all__:
        assert namespace[name] is getattr(centerfocus, name)
        assert not isinstance(namespace[name], types.ModuleType)
        assert name == "__version__" or not name.startswith("_")
    public = {
        name
        for name, value in vars(centerfocus).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(centerfocus.__all__)
