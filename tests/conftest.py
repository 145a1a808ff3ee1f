"""Fixtures shared by the test modules."""

import pytest

from chaincover import _kernels as K


@pytest.fixture
def empty_records():
    """The process-wide poset record table, emptied before and after the test.

    A test that patches a kernel primitive while it sweeps or searches uses
    it, so no record built through the patch outlives the test.
    """
    K._RECORDS.clear()
    yield K._RECORDS
    K._RECORDS.clear()


@pytest.fixture
def empty_orbits():
    """The process-wide orbit table K._ORBITS, emptied before and after the test.

    A test that checks which orbit entries a sweep or search builds or hands
    back starts from it cold, and no entry it leaves reaches a later test.
    """
    K._ORBITS.clear()
    yield K._ORBITS
    K._ORBITS.clear()
