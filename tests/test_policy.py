from datetime import date

import pytest
from hypothesis import given, strategies as st

from dstc.policy import (
    DuplicateDirective,
    BadFlag,
    MalformedDate,
    MalformedPolicy,
    MalformedReport,
    MissingDirective,
    NotDstc,
    PolicyRecord,
    PolicyStatus,
    UnknownDirective,
    UnknownTlsLevel,
    parse_policy,
    parse_policy_date,
    policy_status,
    serialize_policy,
)

CANONICAL = (
    "name=DSTC; validFrom=01-05-2018; validTo=01-05-2019; "
    "tlsLevel=strict-config; includeSubDomain=0; revoke=0; report=admin@tls12.com"
)


def test_parse_canonical_record():
    record = parse_policy(CANONICAL)
    assert record.name == "DSTC"
    assert record.valid_from == date(2018, 5, 1)
    assert record.valid_to == date(2019, 5, 1)
    assert record.tls_level == "strict-config"
    assert record.include_sub_domain is False
    assert record.revoke is False
    assert record.report == "admin@tls12.com"


def test_parse_tolerates_loose_whitespace():
    loose = (
        "  name=DSTC;validFrom=01-05-2018 ;  validTo=01-05-2019;"
        "tlsLevel=strict-config;includeSubDomain=1; revoke=0 ;report=a@b.c  "
    )
    record = parse_policy(loose)
    assert record.include_sub_domain is True
    assert record.report == "a@b.c"


def test_serialize_is_canonical_rendering():
    assert serialize_policy(parse_policy(CANONICAL)) == CANONICAL


def test_serialize_then_parse_round_trips():
    record = parse_policy(CANONICAL)
    assert parse_policy(serialize_policy(record)) == record


def test_date_ordering_violation_is_malformed_date():
    bad = CANONICAL.replace("validTo=01-05-2019", "validTo=01-04-2018")
    with pytest.raises(MalformedDate):
        parse_policy(bad)


def test_non_dstc_txt_is_ignored_not_malformed():
    with pytest.raises(NotDstc):
        parse_policy("v=spf1 include:example.com")
    with pytest.raises(NotDstc):
        parse_policy("")
    with pytest.raises(NotDstc):
        parse_policy(CANONICAL.replace("name=DSTC", "name=HSTS"))


@pytest.mark.parametrize("directive", [
    "name", "validFrom", "validTo", "tlsLevel", "includeSubDomain", "revoke", "report",
])
def test_each_directive_is_mandatory(directive):
    segments = [s for s in CANONICAL.split("; ") if not s.startswith(f"{directive}=")]
    broken = "; ".join(segments)
    if directive == "name":
        with pytest.raises(NotDstc):
            parse_policy(broken)
    else:
        with pytest.raises(MissingDirective) as info:
            parse_policy(broken)
        assert info.value.directive == directive


@pytest.mark.parametrize("mutation, error", [
    (("validFrom=01-05-2018", "validFrom=1-5-2018"), MalformedDate),
    (("validFrom=01-05-2018", "validFrom=2018-05-01"), MalformedDate),
    (("validFrom=01-05-2018", "validFrom=32-05-2018"), MalformedDate),
    (("validTo=01-05-2019", "validTo=01-13-2019"), MalformedDate),
    (("tlsLevel=strict-config", "tlsLevel=loose-config"), UnknownTlsLevel),
    (("includeSubDomain=0", "includeSubDomain=2"), BadFlag),
    (("revoke=0", "revoke=yes"), BadFlag),
    (("report=admin@tls12.com", "report=not-an-address"), MalformedReport),
    (("report=admin@tls12.com", "report=two@at@signs"), MalformedReport),
])
def test_malformed_values(mutation, error):
    old, new = mutation
    with pytest.raises(error):
        parse_policy(CANONICAL.replace(old, new))


def test_duplicate_directive_rejected():
    with pytest.raises(DuplicateDirective):
        parse_policy(CANONICAL + "; revoke=1")


def test_unknown_directive_rejected():
    with pytest.raises(UnknownDirective):
        parse_policy(CANONICAL + "; maxAge=3600")


def test_segment_without_equals_rejected():
    with pytest.raises(UnknownDirective):
        parse_policy(CANONICAL + "; junk")


def test_direct_construction_checks_date_order():
    with pytest.raises(MalformedDate):
        PolicyRecord(
            valid_from=date(2019, 5, 2),
            valid_to=date(2018, 5, 1),
            report="a@b.c",
        )


@pytest.mark.parametrize("kwargs, error", [
    ({"tls_level": "weak"}, UnknownTlsLevel),
    ({"report": "not-an-address"}, MalformedReport),
    ({"report": "a b@c.d"}, MalformedReport),
    ({"report": "a@b.c\n"}, MalformedReport),
    ({"report": "a@b.c;revoke=1"}, MalformedReport),
], ids=["tls-level", "no-at", "space", "trailing-newline", "semicolon"])
def test_direct_construction_checks_directive_values(kwargs, error):
    kwargs = {"report": "a@b.c", **kwargs}
    with pytest.raises(error):
        PolicyRecord(valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1), **kwargs)


def test_policy_status_three_way():
    record = parse_policy(CANONICAL)
    assert policy_status(record, date(2018, 5, 6)) is PolicyStatus.ACTIVE
    assert policy_status(record, date(2019, 5, 2)) is PolicyStatus.EXPIRED
    assert policy_status(record, date(2018, 4, 30)) is PolicyStatus.NOT_YET_VALID
    # boundary days are inside the window
    assert policy_status(record, record.valid_from) is PolicyStatus.ACTIVE
    assert policy_status(record, record.valid_to) is PolicyStatus.ACTIVE


def test_parse_policy_date_strictness():
    assert parse_policy_date("01-05-2018") == date(2018, 5, 1)
    for bad in ("1-05-2018", "01-5-2018", "01-05-18", "01/05/2018", "29-02-2018", ""):
        with pytest.raises(MalformedDate):
            parse_policy_date(bad)


# -- property tests ---------------------------------------------------------

_dates = st.dates(min_value=date(1900, 1, 1), max_value=date(2999, 12, 31))
_local = st.from_regex(r"[a-z0-9][a-z0-9._%+-]{0,14}", fullmatch=True)
_host = st.from_regex(r"[a-z0-9][a-z0-9.-]{0,14}", fullmatch=True)


@st.composite
def policy_records(draw):
    d1 = draw(_dates)
    d2 = draw(_dates)
    valid_from, valid_to = min(d1, d2), max(d1, d2)
    return PolicyRecord(
        valid_from=valid_from,
        valid_to=valid_to,
        report=f"{draw(_local)}@{draw(_host)}",
        include_sub_domain=draw(st.booleans()),
        revoke=draw(st.booleans()),
    )


@given(policy_records())
def test_round_trip_property(record):
    assert parse_policy(serialize_policy(record)) == record


@given(policy_records())
def test_serialization_deterministic(record):
    clone = PolicyRecord(
        valid_from=record.valid_from,
        valid_to=record.valid_to,
        report=record.report,
        include_sub_domain=record.include_sub_domain,
        revoke=record.revoke,
    )
    assert serialize_policy(record) == serialize_policy(clone)


@given(policy_records(), _dates)
def test_status_partitions_timeline(record, now):
    status = policy_status(record, now)
    expected = (
        PolicyStatus.NOT_YET_VALID
        if now < record.valid_from
        else PolicyStatus.EXPIRED
        if now > record.valid_to
        else PolicyStatus.ACTIVE
    )
    assert status is expected


@given(st.text(max_size=200))
def test_rejection_totality(text):
    # Every input either parses or raises exactly one defined parse error.
    try:
        record = parse_policy(text)
    except (NotDstc, MalformedPolicy):
        return
    assert isinstance(record, PolicyRecord)
