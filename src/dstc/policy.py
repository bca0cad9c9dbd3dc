"""Strict-TLS policy records carried in DNS TXT values.

A record is a list of ``key=value`` directives separated by ``;``. All seven
directives (name, validFrom, validTo, tlsLevel, includeSubDomain, revoke,
report) must be present, dates use zero-padded ``dd-mm-yyyy``, and the only
recognised policy level is ``strict-config``. A TXT value whose ``name``
directive is missing or not ``DSTC`` is some other record type and is ignored
rather than rejected.

``parse_policy`` tries the canonical form first: the exact text
``serialize_policy`` writes (every cache line, and every ``dstc gen`` output),
read with one regex match. Any other text goes to the general parser. Both
give the same record, or raise the same exception with the same message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from enum import Enum

RECORD_NAME = "DSTC"
STRICT_CONFIG = "strict-config"

# Canonical directive order; also the full set of recognised keys.
DIRECTIVES = (
    "name",
    "validFrom",
    "validTo",
    "tlsLevel",
    "includeSubDomain",
    "revoke",
    "report",
)

# Matched with fullmatch; ASCII, so only 0-9 count as digits.
_DATE_RE = re.compile(r"(\d{2})-(\d{2})-(\d{4})", re.ASCII)
_REPORT_RE = re.compile(r"[^@\s;=]+@[^@\s;=]+")

# The canonical form serialize_policy writes: every directive in DIRECTIVES
# order, joined by "; ". Its literal text (keys, "=", "; ") holds no regex
# metacharacter, so the same format with value patterns in its slots is the
# pattern parse_policy tries first.
_CANONICAL_FORMAT = "; ".join(f"{key}=%s" for key in DIRECTIVES)

# Matched with fullmatch. The report keeps _REPORT_RE's Unicode \s: under
# re.ASCII a report ending in U+00A0 would match here, while the general
# parser strips it off and accepts the rest.
_CANONICAL_RE = re.compile(
    _CANONICAL_FORMAT % (
        re.escape(RECORD_NAME),
        _DATE_RE.pattern,
        _DATE_RE.pattern,
        re.escape(STRICT_CONFIG),
        "([01])",
        "([01])",
        f"((?u:{_REPORT_RE.pattern}))",
    ),
    re.ASCII,
)


class PolicyParseError(ValueError):
    """Base class for everything parse_policy can raise."""


class NotDstc(PolicyParseError):
    """The TXT value is not a strict-TLS policy record; ignore it."""


class MalformedPolicy(PolicyParseError):
    """The TXT value claims to be a policy record but is malformed.

    Unlike NotDstc this is a verification failure, not a value to skip.
    """


class MissingDirective(MalformedPolicy):
    def __init__(self, directive: str):
        super().__init__(f"missing directive: {directive}")
        self.directive = directive


class DuplicateDirective(MalformedPolicy):
    def __init__(self, directive: str):
        super().__init__(f"duplicate directive: {directive}")
        self.directive = directive


class UnknownDirective(MalformedPolicy):
    def __init__(self, directive: str):
        super().__init__(f"unknown directive: {directive}")
        self.directive = directive


class MalformedDate(MalformedPolicy):
    def __init__(self, directive: str, detail: str):
        super().__init__(f"{directive}: {detail}")
        self.directive = directive


class UnknownTlsLevel(MalformedPolicy):
    def __init__(self, value: str):
        super().__init__(f"unknown tlsLevel: {value!r}")
        self.value = value


class BadFlag(MalformedPolicy):
    def __init__(self, directive: str, value: str):
        super().__init__(f"{directive} must be 0 or 1, got {value!r}")
        self.directive = directive


class MalformedReport(MalformedPolicy):
    def __init__(self, value: str):
        super().__init__(f"report is not local@domain shaped: {value!r}")
        self.value = value


def parse_policy_date(text: str, directive: str = "date") -> date:
    """Parse a zero-padded dd-mm-yyyy date; any other shape is rejected."""
    m = _DATE_RE.fullmatch(text)
    if m is None:
        raise MalformedDate(directive, f"expected dd-mm-yyyy, got {text!r}")
    return _date(directive, *m.groups())


def _date(directive: str, day: str, month: str, year: str) -> date:
    """The calendar date of ASCII digit strings, or MalformedDate."""
    try:
        return date(int(year), int(month), int(day))
    except ValueError as exc:
        raise MalformedDate(directive, str(exc)) from exc


def format_policy_date(d: date) -> str:
    return f"{d.day:02d}-{d.month:02d}-{d.year:04d}"


class PolicyStatus(Enum):
    ACTIVE = "Active"
    NOT_YET_VALID = "NotYetValid"
    EXPIRED = "Expired"


# Enum.MEMBER costs 140-190 ns on 3.10/3.11 (EnumMeta.__getattr__; 42 ns on 3.12), a global 37 ns.
_ACTIVE = PolicyStatus.ACTIVE
_NOT_YET_VALID = PolicyStatus.NOT_YET_VALID
_EXPIRED = PolicyStatus.EXPIRED


@dataclass(frozen=True)
class PolicyRecord:
    """A parsed strict-TLS policy directive set.

    Construction runs the value checks ``parse_policy`` relies on (name,
    tlsLevel, report shape, date order, flags that are ``bool``), so every
    record serialises to a value the parser accepts.
    """

    valid_from: date
    valid_to: date
    report: str
    include_sub_domain: bool = False
    revoke: bool = False
    tls_level: str = STRICT_CONFIG
    name: str = RECORD_NAME

    def __post_init__(self):
        if self.name != RECORD_NAME:
            raise NotDstc(f"record name must be {RECORD_NAME}, got {self.name!r}")
        if self.tls_level != STRICT_CONFIG:
            raise UnknownTlsLevel(self.tls_level)
        if not _REPORT_RE.fullmatch(self.report):
            raise MalformedReport(self.report)
        # serialize_policy writes int(flag); only a bool surely writes 0 or 1.
        if type(self.include_sub_domain) is not bool:
            raise BadFlag("includeSubDomain", self.include_sub_domain)
        if type(self.revoke) is not bool:
            raise BadFlag("revoke", self.revoke)
        if self.valid_from > self.valid_to:
            raise MalformedDate(
                "validFrom", "validFrom is later than validTo"
            )


def _parse_flag(directive: str, value: str) -> bool:
    if value == "0":
        return False
    if value == "1":
        return True
    raise BadFlag(directive, value)


def parse_policy(txt_value: str) -> PolicyRecord:
    """Parse one TXT value into a PolicyRecord.

    Raises NotDstc when the value carries no ``name=DSTC`` directive (callers
    should skip such values), and a MalformedPolicy subclass for every other
    defect. No partially-populated record is ever returned.

    The canonical form ``serialize_policy`` writes is read with one regex
    match, and its dates and values go through the same checks as below.
    Any other text, such as a date or report of the wrong shape, goes to the
    general parser. Both give identical results.
    """
    m = _CANONICAL_RE.fullmatch(txt_value)
    if m is not None:
        fd, fm, fy, td, tm, ty, sub, revoke, report = m.groups()
        return PolicyRecord(
            valid_from=_date("validFrom", fd, fm, fy),
            valid_to=_date("validTo", td, tm, ty),
            report=report,
            include_sub_domain=sub == "1",
            revoke=revoke == "1",
        )

    segments = [seg.strip() for seg in txt_value.split(";")]
    segments = [seg for seg in segments if seg]
    named_dstc = any(
        seg.partition("=")[0].strip() == "name"
        and seg.partition("=")[2].strip() == RECORD_NAME
        for seg in segments
    )
    if not named_dstc:
        # The name directive is absent or carries a different value.
        raise NotDstc("no name=DSTC directive")

    pairs: dict[str, str] = {}
    for seg in segments:
        key, eq, value = seg.partition("=")
        key = key.strip()
        if not eq:
            raise UnknownDirective(seg)
        if key not in DIRECTIVES:
            raise UnknownDirective(key)
        if key in pairs:
            raise DuplicateDirective(key)
        pairs[key] = value.strip()

    for directive in DIRECTIVES:
        if directive not in pairs:
            raise MissingDirective(directive)

    return PolicyRecord(
        name=pairs["name"],
        valid_from=parse_policy_date(pairs["validFrom"], "validFrom"),
        valid_to=parse_policy_date(pairs["validTo"], "validTo"),
        tls_level=pairs["tlsLevel"],
        include_sub_domain=_parse_flag("includeSubDomain", pairs["includeSubDomain"]),
        revoke=_parse_flag("revoke", pairs["revoke"]),
        report=pairs["report"],
    )


def serialize_policy(record: PolicyRecord) -> str:
    """Render the canonical TXT value: fixed key order, '; ' separators."""
    return _CANONICAL_FORMAT % (
        record.name,
        format_policy_date(record.valid_from),
        format_policy_date(record.valid_to),
        record.tls_level,
        int(record.include_sub_domain),
        int(record.revoke),
        record.report,
    )


def policy_status(record: PolicyRecord, now: date) -> PolicyStatus:
    """Place *now* on the record's validity timeline (both ends inclusive)."""
    if now < record.valid_from:
        return _NOT_YET_VALID
    if now > record.valid_to:
        return _EXPIRED
    return _ACTIVE
