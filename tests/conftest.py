from datetime import date

import pytest

from dstc.dnssec import ZoneKeyPair
from dstc.scenarios import fixture_keys


@pytest.fixture(scope="session")
def zone_keys():
    # RSA generation is the slow part of the suite; share the fixtures' pair.
    return fixture_keys()


@pytest.fixture(scope="session")
def other_keys():
    return ZoneKeyPair.generate("zsk-2")


@pytest.fixture
def now():
    return date(2018, 7, 1)
