"""Strict-TLS policy records carried in DNS TXT values.

A record is a list of ``key=value`` directives separated by ``;``. All seven
directives (name, validFrom, validTo, tlsLevel, includeSubDomain, revoke,
report) must be present, dates use zero-padded ``dd-mm-yyyy``, and the only
recognised policy level is ``strict-config``. A TXT value whose ``name``
directive is missing or not ``DSTC`` is some other record type and is ignored
rather than rejected.

``parse_policy``, ``parse_policy_date`` and ``format_policy_date`` are bounded
memos of pure results. An input that raises is never kept, so it raises
afresh, with the same message, on every call. README "Kept values" gives
each memo's key, bound and measured worth.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import lru_cache

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

_CANONICAL_FORMAT = "; ".join(f"{key}=%s" for key in DIRECTIVES)


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


@lru_cache(maxsize=1 << 12)
def parse_policy_date(text: str, directive: str = "date") -> date:
    """Parse a zero-padded dd-mm-yyyy date; any other shape is rejected."""
    m = _DATE_RE.fullmatch(text)
    if m is None:
        raise MalformedDate(directive, f"expected dd-mm-yyyy, got {text!r}")
    day, month, year = m.groups()
    try:
        return date(int(year), int(month), int(day))
    except ValueError as exc:
        raise MalformedDate(directive, str(exc)) from exc


@lru_cache(maxsize=1 << 12)
def format_policy_date(d: date) -> str:
    return f"{d.day:02d}-{d.month:02d}-{d.year:04d}"


class PolicyStatus(Enum):
    ACTIVE = "Active"
    NOT_YET_VALID = "NotYetValid"
    EXPIRED = "Expired"


# Contact-path aliases: no Enum.MEMBER read (README "Kept values").
_ACTIVE = PolicyStatus.ACTIVE
_NOT_YET_VALID = PolicyStatus.NOT_YET_VALID
_EXPIRED = PolicyStatus.EXPIRED


@dataclass(frozen=True, slots=True)
class PolicyRecord:
    """A parsed strict-TLS policy: the directives that can vary.

    Construction runs the value checks ``parse_policy`` relies on (report
    shape, flags that are ``bool``, date order), so every record serialises
    to a value the parser accepts.
    """

    valid_from: date
    valid_to: date
    report: str
    include_sub_domain: bool = False
    revoke: bool = False

    def __post_init__(self):
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


def parse_policy_flag(value: str, directive: str) -> bool:
    """Read a 0/1 flag directive; any other value is BadFlag naming it."""
    if value == "0":
        return False
    if value == "1":
        return True
    raise BadFlag(directive, value)


# Past its bound a cyclic working set never hits (README "Kept values").
@lru_cache(maxsize=1 << 14)
def parse_policy(txt_value: str) -> PolicyRecord:
    """Parse one TXT value into a PolicyRecord.

    Raises NotDstc when the value carries no ``name=DSTC`` directive (callers
    should skip such values), and a MalformedPolicy subclass for every other
    defect. No partially-populated record is ever returned.
    """
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

    # name is fixed above; then dates, flags, tlsLevel and the record's checks.
    valid_from = parse_policy_date(pairs["validFrom"], "validFrom")
    valid_to = parse_policy_date(pairs["validTo"], "validTo")
    include_sub_domain = parse_policy_flag(pairs["includeSubDomain"], "includeSubDomain")
    revoke = parse_policy_flag(pairs["revoke"], "revoke")
    if pairs["tlsLevel"] != STRICT_CONFIG:
        raise UnknownTlsLevel(pairs["tlsLevel"])
    return PolicyRecord(valid_from, valid_to, pairs["report"], include_sub_domain, revoke)


def serialize_policy(record: PolicyRecord) -> str:
    """Render the canonical TXT value: fixed key order, '; ' separators."""
    return _CANONICAL_FORMAT % (
        RECORD_NAME,
        format_policy_date(record.valid_from),
        format_policy_date(record.valid_to),
        STRICT_CONFIG,
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
