"""The package's public surface."""

import types

import crowdpricer


def test_all_is_exactly_the_public_names():
    # every name without a leading underscore that is not a submodule, and the version
    public = {name for name, value in vars(crowdpricer).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(crowdpricer.__all__)) == len(crowdpricer.__all__)
    assert set(crowdpricer.__all__) == public | {"__version__"}


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from crowdpricer import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(crowdpricer.__all__)
    assert all(namespace[name] is getattr(crowdpricer, name) for name in crowdpricer.__all__)
