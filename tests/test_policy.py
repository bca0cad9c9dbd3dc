import importlib.util
import re
import sys
from dataclasses import astuple
from datetime import date
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

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
    format_policy_date,
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
    for bad in ("1-05-2018", "01-5-2018", "01-05-18", "01/05/2018", "29-02-2018", "",
                "\u0660\u0661-\u0660\u0665-\u0662\u0660\u0661\u0668", "01-05-2018\n"):
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


# -- the reference differential ----------------------------------------------


def _load_reference():
    path = Path(__file__).with_name("reference_policy.py")
    spec = importlib.util.spec_from_file_location("reference_policy", path)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks the class's module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def _outcome(parse, text):
    """What *parse* makes of *text*: the record's fields, or the exception's
    class name and message (the reference raises its own classes)."""
    try:
        return "record", astuple(parse(text))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# Edits that reach the value checks' edges: date and flag digits, separators,
# whitespace the general parser strips (ASCII, U+001C and U+00A0) and a
# non-ASCII digit (U+0660).
_EDIT_CHARS = "0123456789-;= @\n\u0660a\u00a0\x1c"
_VALUE = re.compile(r"=([^;]*)")


@st.composite
def edited_canonical_texts(draw):
    """A serialised record with 1-3 single-character inserts, replacements
    or deletions in or at the ends of its directive values.

    Value edits probe where each value check stops accepting; edited keys
    are left to the any-text property.
    """
    text = serialize_policy(draw(policy_records()))
    for _ in range(draw(st.integers(1, 3))):
        start, end = draw(st.sampled_from([m.span(1) for m in _VALUE.finditer(text)]))
        i = draw(st.integers(start, end))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        char = "" if edit == "delete" else draw(st.sampled_from(_EDIT_CHARS))
        text = text[:i] + char + text[i + (edit != "insert"):]
    return text


@settings(max_examples=200)
@given(edited_canonical_texts())
# A ";" inside the report splits off a ".com" segment: UnknownDirective, not
# MalformedReport.
@example(CANONICAL.replace("report=admin@tls12.com", "report=admin@tls1;.com"))
# A trailing U+00A0 is whitespace the parser strips off the report.
@example(CANONICAL + "\u00a0")
def test_edited_canonical_text_parses_as_the_general_parser_does(text):
    assert _outcome(parse_policy, text) == _outcome(reference.parse_policy, text)


def _single_edits(text):
    for i in range(len(text) + 1):
        yield text[:i] + text[i + 1:]
        for char in _EDIT_CHARS:
            yield text[:i] + char + text[i:]
            yield text[:i] + char + text[i + 1:]


@pytest.mark.parametrize("text", [
    CANONICAL,
    serialize_policy(PolicyRecord(valid_from=date(2020, 2, 29), valid_to=date(2020, 12, 31),
                                  report="x@y", include_sub_domain=True, revoke=True)),
], ids=["canonical", "leap-day-flags-set"])
def test_every_single_edit_parses_as_the_general_parser_does(text):
    # Every insert, replacement and deletion of one _EDIT_CHARS character,
    # so an edge of a value check cannot hide from a lucky seed.
    parted = [edited for edited in _single_edits(text)
              if _outcome(parse_policy, edited) != _outcome(reference.parse_policy, edited)]
    assert parted == []


@given(st.text(max_size=200))
def test_any_text_parses_as_the_general_parser_does(text):
    assert _outcome(parse_policy, text) == _outcome(reference.parse_policy, text)


@pytest.mark.parametrize("old, new, error", [
    ("validFrom=01-05-2018", "validFrom=31-02-2018", MalformedDate),
    ("validTo=01-05-2019", "validTo=29-02-2019", MalformedDate),
    ("validTo=01-05-2019", "validTo=30-04-2018", MalformedDate),
    ("report=admin@tls12.com", "report=two@at@signs", MalformedReport),
], ids=["no-31-february", "no-29-february-2019", "dates-out-of-order", "two-at-signs"])
def test_canonical_shaped_defects_raise_as_the_general_parser_does(old, new, error):
    text = CANONICAL.replace(old, new)
    with pytest.raises(error) as info:
        parse_policy(text)
    assert (type(info.value).__name__, str(info.value)) == _outcome(reference.parse_policy, text)


@pytest.mark.parametrize("value", [2, 1, 0, "1", None])
@pytest.mark.parametrize("flag, directive", [
    ("include_sub_domain", "includeSubDomain"), ("revoke", "revoke"),
])
def test_direct_construction_refuses_non_bool_flags(flag, directive, value):
    with pytest.raises(BadFlag) as info:
        PolicyRecord(valid_from=date(2018, 5, 1), valid_to=date(2019, 5, 1),
                     report="a@b.c", **{flag: value})
    assert str(info.value) == f"{directive} must be 0 or 1, got {value!r}"


# -- the parse memo -----------------------------------------------------------


def test_repeated_parse_returns_the_identical_record():
    text = CANONICAL.replace("admin@", "memo@")
    first = parse_policy(text)
    assert parse_policy(text) is first
    assert first == parse_policy.__wrapped__(text)


@pytest.mark.parametrize("text, error", [
    (CANONICAL.replace("validTo=01-05-2019", "validTo=31-02-2019"), MalformedDate),
    ("v=spf1 include:_spf.example.com ~all", NotDstc),
], ids=["malformed", "not-dstc"])
def test_a_refused_text_raises_afresh_and_is_not_kept(text, error):
    size = parse_policy.cache_info().currsize
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            parse_policy(text)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert parse_policy.cache_info().currsize == size


def test_the_memo_holds_more_texts_than_warm_revisit_revisits():
    # An LRU memo smaller than a cyclic working set (6500 texts) never hits.
    assert parse_policy.cache_info().maxsize == 1 << 14


@given(st.one_of(edited_canonical_texts(), st.text(max_size=200)))
def test_first_and_second_parse_agree_with_the_reference(text):
    expected = _outcome(reference.parse_policy, text)
    assert _outcome(parse_policy, text) == expected
    assert _outcome(parse_policy, text) == expected


# -- the date memos -----------------------------------------------------------


@given(st.dates())
@example(date.min)
@example(date(999, 12, 31))
@example(date.max)
def test_date_memos_round_trip_and_agree_with_the_unwrapped_functions(d):
    text = format_policy_date.__wrapped__(d)
    assert [format_policy_date(d), format_policy_date(d)] == [text, text]
    assert parse_policy_date.__wrapped__(text) == d
    assert [parse_policy_date(text), parse_policy_date(text)] == [d, d]


@pytest.mark.parametrize("text", [
    "1-5-2018", "31-02-2019", "01-13-2018", "00-05-2018",
    "\u0660\u0661-\u0660\u0665-\u0662\u0660\u0661\u0668",
])
def test_a_refused_date_raises_afresh_and_is_not_kept(text):
    size = parse_policy_date.cache_info().currsize
    raised = []
    for parse in (parse_policy_date.__wrapped__, parse_policy_date, parse_policy_date):
        with pytest.raises(MalformedDate) as info:
            parse(text, "validTo")
        raised.append((type(info.value), str(info.value), info.value.directive))
    assert raised[0] == raised[1] == raised[2]
    assert raised[0][1].startswith("validTo: ")
    assert parse_policy_date.cache_info().currsize == size


def test_one_bad_date_under_two_directives_names_each():
    details = set()
    for directive in ("validFrom", "stored_at"):
        with pytest.raises(MalformedDate) as info:
            parse_policy_date("31-02-2019", directive)
        assert info.value.directive == directive
        prefix, _, detail = str(info.value).partition(": ")
        assert prefix == directive
        details.add(detail)
    # Both carry the calendar's one reason after their own directive.
    assert len(details) == 1


def test_the_date_memos_are_bounded_at_4096_texts():
    assert format_policy_date.cache_info().maxsize == 1 << 12
    assert parse_policy_date.cache_info().maxsize == 1 << 12
