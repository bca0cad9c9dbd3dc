"""Files written before the cache dropped its stored-at date and the zone
its KEY lines: they load, decide as they did, and one save writes the
current form, which reads back unchanged.

The literals below are a zone, trust-anchor and cache file as the earlier
writers saved them, with the decisions those writers' code gave on them.
"""

import re
from datetime import date

import pytest

from dstc.dnssec import TrustAnchorSet, ZoneStore, resolve
from dstc.enforcement import decide
from dstc.store import PolicyStore, StoreFileError

KEY = (
    "MIIBIjANBgkqhkiG9w0BAQEFAAOCAQ8AMIIBCgKCAQEAqWWurQXoZ70L4GMPtiJ/SJ8dB4IjFlBY"
    "GvkAENvMObbHw6rrq01jbzYUPpsdHKUg0CNagMNFHGLwP0axMWzei/81ZRotS0ZJTqKD7bm2SkEV"
    "HZ0q2x5wV5B4hnos/z1KfiqzskhY45HNFvWQhRySOM0gR11ho9MXHDdiHEpQ0HPBgXB1Tb/aKXWQ"
    "iejTMx49pjRHYYPtD+LUKCKgRteRmHtEHd9AX4yipQec5o6LbvvuuQT7VOMuZGhXE4LRVC4NHeTt"
    "ihMnCjHFfGEIQ9Fc1nsYSkWfXsp4eeNQLuZjVp3LmQ2EnctiNvbHd7S0wl+AxQpsxbfvokK3CLVM"
    "ke4iMwIDAQAB"
)
REV_SIG = (
    "UpZ/Nm5+ulx6npBuEVlpxBqI3x/oSxnkfumZxt0yXcXSrSHQUQ81nud4B6siJRtn57RfhccJQDq0"
    "F7Nv5tPaS/QjRybNA6DplizWDPetC9Z0HoGOJqA9NLp74/uFkskxfZ1IJrLObKZcfwJJtbIWMdu3"
    "H4w3QKRam2JMDknaiCU43/TT9rpljDq+ezGYUmt/IC5s00yRjAtTq65otR4diVkNcOy1LfmeWaEP"
    "Cdvg7IC+dYeYqOINS2Llyuh0cn0ic9Pb1pvZGMdF+J+OYN1YvYMd55qXPCfCNw23r8Txm87j45dp"
    "gNY3kJ+VmL0wrf/WmsjajC8lZmtZ98A5YD9WMw=="
)
TLS12_SIG = (
    "bzXvQdB2/QzBILUFSHLWgzDfh5DiT9WrQj+1gOnuDT5LKhQ5bJlIEMJctWiWg6lE8oNnRSSPXO3h"
    "znQLsT4lv/eRStRTCIxSymdYXb1hYt0QqF6UIGfVWj09JDiOThTrxR0O+3hrVsblLF+g42nYNnpu"
    "lkCfRr0arMFYneTjeMNyxf4ktJbai/RxdS+TQk1VUt0k74R9tCMEoXNQBNWcAZIrvQU8XPYe6l9F"
    "qwcadq73763wjApIalYI8WCr7iWaVEezaZltfNVFqzaa4J+sWHPPRnv/ilzt7morh6I9Zhh0kbxI"
    "X3EJABHtF0d0f/rmRVHKZeyA+Eq7I2tD9wiy5A=="
)
REV_POLICY = (
    "name=DSTC; validFrom=01-05-2018; validTo=01-05-2019; tlsLevel=strict-config; "
    "includeSubDomain=0; revoke=0; report=admin@rev.test"
)
TLS12_POLICY = (
    "name=DSTC; validFrom=01-05-2018; validTo=01-05-2019; tlsLevel=strict-config; "
    "includeSubDomain=1; revoke=0; report=admin@tls12.test"
)
DROP_POLICY = (
    "name=DSTC; validFrom=01-05-2018; validTo=01-05-2019; tlsLevel=strict-config; "
    "includeSubDomain=0; revoke=0; report=admin@drop.test"
)

ZONE_RECORDS = (
    f'rev.test TXT "{REV_POLICY}"\n'
    f"rev.test SIG zsk-1 01-05-2018 01-05-2019 {REV_SIG}\n"
    f'tls12.test TXT "{TLS12_POLICY}"\n'
    f"tls12.test SIG zsk-1 01-05-2018 01-05-2019 {TLS12_SIG}\n"
    "drop.test NAME -\n"
)
OLD_ZONE = ZONE_RECORDS + f"KEY zsk-1 {KEY}\n"
ANCHORS = f"test zsk-1 {KEY}\n"
OLD_CACHE = (
    f"POLICY drop.test 15-06-2018 {DROP_POLICY}\n"
    f"POLICY tls12.test 20-05-2018 {TLS12_POLICY}\n"
    "TOMBSTONE rev.test 01-06-2018 01-05-2019\n"
)
CACHE = (
    f"POLICY drop.test {DROP_POLICY}\n"
    f"POLICY tls12.test {TLS12_POLICY}\n"
    "TOMBSTONE rev.test 01-06-2018 01-05-2019\n"
)

NOW = date(2018, 7, 1)
# (domain, mode, reason, report) as the earlier code decided on these files.
DECISIONS = [
    ("tls12.test", "Strict", "OK", "admin@tls12.test"),
    ("www.tls12.test", "Strict", "OK", "admin@tls12.test"),
    ("rev.test", "Default", "Revoked", "admin@rev.test"),
    ("drop.test", "Strict", "DropAlarm", "admin@drop.test"),
    ("none.test", "Default", "NoRecord", None),
]


def _decisions(zone_text, cache_text):
    zone = ZoneStore.from_text(zone_text)
    anchors = TrustAnchorSet.from_text(ANCHORS)
    store = PolicyStore.from_text(cache_text)
    decided = []
    for domain, *_ in DECISIONS:
        decision = decide(resolve(zone, domain), anchors, store, domain, NOW)
        decided.append((domain, decision.mode.value, decision.reason.value,
                        decision.report_address))
    return decided


def test_older_files_load_and_decide_as_they_did():
    assert _decisions(OLD_ZONE, OLD_CACHE) == DECISIONS


def test_one_save_writes_the_current_form_which_round_trips(tmp_path):
    zone_path, cache_path = tmp_path / "test.zone", tmp_path / "store.txt"
    zone_path.write_text(OLD_ZONE)
    cache_path.write_text(OLD_CACHE)
    ZoneStore.load(zone_path).save(zone_path)
    PolicyStore.load(cache_path).save(cache_path)
    assert zone_path.read_text() == ZONE_RECORDS
    assert cache_path.read_text() == CACHE
    assert ZoneStore.from_text(ZONE_RECORDS).to_text() == ZONE_RECORDS
    assert PolicyStore.from_text(CACHE).to_text() == CACHE
    assert _decisions(ZONE_RECORDS, CACHE) == DECISIONS


@pytest.mark.parametrize("line", [
    "KEY zsk-1",
    "KEY #k AAAA",
    "KEY zsk-1 !!!!",
], ids=["no-key", "comment-id", "no-base64"])
def test_zone_reader_skips_any_key_line(line):
    text = f"{line}\n{ZONE_RECORDS}KEY zsk-1 {KEY}\nKEY zsk-1 {KEY}\n"
    assert ZoneStore.from_text(text).to_text() == ZONE_RECORDS


# Each cache refusal holds for a POLICY line in either form.
@pytest.mark.parametrize("stamp", ["", "15-06-2018 "], ids=["current", "older"])
@pytest.mark.parametrize("lines, message", [
    ([f"POLICY a.test {{stamp}}{DROP_POLICY.replace('revoke=0', 'revoke=1')}"],
     "line 1: a cached policy cannot carry revoke=1"),
    ([f"POLICY a.test {{stamp}}{DROP_POLICY}", f"POLICY A.test. {DROP_POLICY}"],
     "line 2: duplicate domain a.test"),
    ([f"POLICY . {{stamp}}{DROP_POLICY}"], "line 1: domain '' cannot be written as one field"),
    ([f"POLICY a.test {{stamp}}{DROP_POLICY.replace('tlsLevel=strict-config', 'tlsLevel=weak')}"],
     "line 1: unknown tlsLevel: 'weak'"),
], ids=["revoke", "duplicate", "field", "policy"])
def test_cache_refusals_hold_in_either_form(stamp, lines, message):
    text = "".join(line.format(stamp=stamp) + "\n" for line in lines)
    with pytest.raises(StoreFileError, match=f"^{message}$"):
        PolicyStore.from_text(text)


@pytest.mark.parametrize("stamp, detail", [
    ("99-99-2018", "month must be in 1..12"),
    ("31-02-2018", "day is out of range for month"),
    ("1-5-2018", "expected dd-mm-yyyy, got '1-5-2018'"),
    ("15-06-2018x", "expected dd-mm-yyyy, got '15-06-2018x'"),
], ids=["month", "day", "unpadded", "trailing"])
def test_an_older_line_with_a_bad_date_is_refused(stamp, detail):
    with pytest.raises(StoreFileError, match=f"^line 2: stored-at: {re.escape(detail)}$"):
        PolicyStore.from_text(f"# cache\nPOLICY a.test {stamp} {DROP_POLICY}\n")
