"""Every call site the benchmark's traced pass wraps must still exist.

The traced pass replaces these module attributes with timing wrappers; a
renamed or removed function would otherwise fail only there.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import layers  # noqa: E402


def test_every_wrapped_site_resolves_to_a_callable():
    sites = layers.sites()
    assert sites
    for module, attr, span, _ in sites:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
