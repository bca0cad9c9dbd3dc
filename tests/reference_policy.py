"""Reference copy of the general policy parser, for differential tests.

This is ``dstc.policy`` as it was before ``parse_policy`` gained its
canonical fast path: the split/partition parser with its value checks,
copied verbatim, less the date formatting, serialising and status code it
does not use. ``tests/test_policy.py`` checks that the shipped
``parse_policy`` returns an equal record, or raises an exception of the same
class name with the same message, for every text it tries. Do not edit it to
follow a change in ``dstc.policy``; a deliberate change of behaviour there
replaces this copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date

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
    day, month, year = (int(g) for g in m.groups())
    try:
        return date(year, month, day)
    except ValueError as exc:
        raise MalformedDate(directive, str(exc)) from exc


@dataclass(frozen=True)
class PolicyRecord:
    """A parsed strict-TLS policy directive set.

    Construction runs the value checks ``parse_policy`` relies on (name,
    tlsLevel, report shape, date order), so every record serialises to a
    value the parser accepts.
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

    return PolicyRecord(
        name=pairs["name"],
        valid_from=parse_policy_date(pairs["validFrom"], "validFrom"),
        valid_to=parse_policy_date(pairs["validTo"], "validTo"),
        tls_level=pairs["tlsLevel"],
        include_sub_domain=_parse_flag("includeSubDomain", pairs["includeSubDomain"]),
        revoke=_parse_flag("revoke", pairs["revoke"]),
        report=pairs["report"],
    )
