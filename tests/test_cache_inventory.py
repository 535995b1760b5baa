"""The package's memo caches, listed in one place.

The benchmark reads ``cache_info()`` of the cached functions and fails a
job that starts with a warm cache, so a cache added or removed anywhere in
the package must show up here first.
"""

import importlib
import pkgutil

import gramtree

EXPECTED = {"gramtree.merge.distance", "gramtree.merge._alignment", "gramtree.merge.merge_all"}


def test_only_the_merge_caches_expose_cache_info():
    modules = [gramtree] + [
        importlib.import_module(info.name) for info in pkgutil.iter_modules(gramtree.__path__, "gramtree.")
    ]
    found = set()
    for module in modules:
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                found.add(f"{value.__module__}.{value.__qualname__}")
    assert found == EXPECTED
