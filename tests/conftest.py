from datetime import date

import pytest

from dstc.dnssec import ZoneKeyPair


@pytest.fixture(scope="session")
def zone_keys():
    # RSA generation is the slow part of the suite; share one pair.
    return ZoneKeyPair.generate("zsk-1")


@pytest.fixture(scope="session")
def other_keys():
    return ZoneKeyPair.generate("zsk-2")


@pytest.fixture
def now():
    return date(2018, 7, 1)
