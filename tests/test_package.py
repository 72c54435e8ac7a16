import types

import prymbn


def test_star_import_binds_only_package_objects():
    namespace = {}
    exec("from prymbn import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == prymbn.__all__
    for name, obj in namespace.items():
        assert not isinstance(obj, types.ModuleType), name
        assert obj.__module__.startswith("prymbn."), name
