"""Read-only access to fixtures/witnesses.json for tests.

A test compares what it computes with the stored entry and never writes: a
missing key fails the test instead of storing the value under test.  Only
`treeramsey witness search --fixtures` writes the file.
"""

from pathlib import Path

import pytest

from treeramsey import serialize

FIXTURES = str(Path(__file__).resolve().parent.parent / "fixtures" / "witnesses.json")


def stored_fixture(key):
    entries = serialize.load_fixtures(FIXTURES)["entries"]
    if key not in entries:
        pytest.fail(f"fixture {key!r} is missing from {FIXTURES}")
    return entries[key]


def assert_fixture(key, value):
    stored = stored_fixture(key)
    assert stored == value, f"fixture {key!r}: stored {stored!r}, computed {value!r}"
