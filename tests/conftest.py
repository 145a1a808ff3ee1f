"""Fixtures shared by the test modules."""

import pytest

from chaincover import _kernels as K
from chaincover import document as D


@pytest.fixture
def empty_records():
    """The process-wide poset record table, emptied before and after the test.

    A test that patches a kernel primitive while it sweeps or searches uses
    it, so no record built through the patch outlives the test. The parsed
    posets of `document._POSETS` hold records too, so they go with it.
    """
    K._RECORDS.clear()
    D._POSETS.clear()
    yield K._RECORDS
    K._RECORDS.clear()
    D._POSETS.clear()


@pytest.fixture
def empty_tables():
    """The document tables `_KEPT` and `_POSETS`, emptied before and after
    the test, so that what it keeps and shares is its own."""
    D._KEPT.clear()
    D._POSETS.clear()
    yield D._KEPT, D._POSETS
    D._KEPT.clear()
    D._POSETS.clear()


@pytest.fixture
def empty_orbits():
    """The process-wide orbit table K._ORBITS, and the fact table K._FACTS
    keyed by its entries, emptied before and after the test.

    A test that checks which orbit entries or facts a sweep or search builds
    or hands back starts from them cold, and no entry it leaves reaches a
    later test.
    """
    K._ORBITS.clear()
    K._FACTS.clear()
    yield K._ORBITS
    K._ORBITS.clear()
    K._FACTS.clear()
