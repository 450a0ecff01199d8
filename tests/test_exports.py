"""The package's public names."""

import r2xsim


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from r2xsim import *", namespace)
    assert sorted(set(r2xsim.__all__)) == sorted(r2xsim.__all__)
    for name in r2xsim.__all__:
        assert namespace[name] is getattr(r2xsim, name)
