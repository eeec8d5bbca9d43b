"""Every name the benchmark's tracer wraps must still exist in the package.

perfbench/tracing.py replaces each SITES entry with a timing wrapper; a
renamed or deleted name would silently drop the per-layer metrics that read
it. This check fails fast instead.
"""

import importlib

import pytest

from conftest import tracer_sites


@pytest.mark.parametrize("module_name,path,span", tracer_sites())
def test_traced_site_resolves_to_a_callable(module_name, path, span):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    assert callable(owner), f"{module_name}.{path} ({span}) is not a callable"
