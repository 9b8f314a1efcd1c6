"""The public namespace of the package."""

from __future__ import annotations

from collections import Counter

import fcakit


def test_all_names_resolve_once():
    assert not [name for name, n in Counter(fcakit.__all__).items() if n > 1]
    for name in fcakit.__all__:
        assert getattr(fcakit, name) is not None, name
