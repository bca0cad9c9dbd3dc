"""Client-side cache of verified policies, one slot per domain.

The cache is what turns one honest first connection into lasting protection:
a stored policy outranks any later record with an older issuance date, a
revocation leaves a tombstone behind so the revoked policy cannot be replayed
back in, and the absence of a record for a domain with a live cached policy
is flagged as a dropping attack instead of silently downgrading.

A domain's slot holds either its policy or its tombstone, and one expiry rule
covers both: once the slot's validTo has passed, it governs nothing. No read
writes, so an expired slot stays, and is saved, until a stored record
overwrites it: a clock set forward and then back finds the cache as it was.

Persistence format (UTF-8, line oriented):

  POLICY <domain> <canonical policy string>
  TOMBSTONE <domain> <valid_from> <valid_to>

The reader also takes the older ``POLICY <domain> <dd-mm-yyyy> <policy>``
form: the date, the day the entry was stored, is checked and dropped, so the
next save writes the line without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum

from .dnssec import normalize_domain
from .policy import (
    PolicyRecord,
    format_policy_date,
    parse_policy,
    parse_policy_date,
    serialize_policy,
)
from .textfile import TextFile, check_field


class StoreAction(Enum):
    STORED_NEW = "StoredNew"
    REPLACED = "Replaced"
    REJECTED_STALE = "RejectedStale"
    REVOKED_DELETED = "RevokedDeleted"
    UNCHANGED = "Unchanged"
    DROP_ALARM = "DropAlarm"


# Contact-path aliases: no Enum.MEMBER read (README "Kept values").
_STORED_NEW = StoreAction.STORED_NEW
_REPLACED = StoreAction.REPLACED
_REJECTED_STALE = StoreAction.REJECTED_STALE
_REVOKED_DELETED = StoreAction.REVOKED_DELETED
_UNCHANGED = StoreAction.UNCHANGED
_DROP_ALARM = StoreAction.DROP_ALARM


class StoreFileError(ValueError):
    """A persistence file could not be loaded."""


@dataclass(frozen=True, slots=True)
class StoredPolicy:
    domain: str
    record: PolicyRecord

    @property
    def valid_from(self) -> date:
        return self.record.valid_from

    @property
    def valid_to(self) -> date:
        return self.record.valid_to


@dataclass(frozen=True, slots=True)
class Tombstone:
    """Marker left by a revocation; blocks replays until valid_to passes."""

    domain: str
    valid_from: date
    valid_to: date


class PolicyStore(TextFile):
    """Policy cache with revocation tombstones, one slot per domain.

    Single-threaded: callers use a store from one thread at a time, and the
    store takes no lock.
    """

    FILE_ERROR = StoreFileError

    def __init__(self):
        self._slots: dict[str, StoredPolicy | Tombstone] = {}

    def _slot(self, domain: str, now: date) -> StoredPolicy | Tombstone | None:
        """The domain's slot, or ``None`` once its validTo has passed. The
        expired slot itself stays in place: a read never writes."""
        slot = self._slots.get(domain)
        return None if slot is None or now > slot.valid_to else slot

    def _exact(self, domain: str, now: date) -> StoredPolicy | Tombstone | None:
        """``_slot`` of the domain's normal form. Every key is a normal name,
        a fixed point of ``normalize_domain``, so the domain is read as given
        first; only a miss normalises it and, if that changed it, reads
        again."""
        slots = self._slots
        slot = slots.get(domain)
        if slot is None:
            normal = normalize_domain(domain)
            if normal is not domain:
                slot = slots.get(normal)
        return None if slot is None or now > slot.valid_to else slot

    # -- core update rules

    def update(self, domain: str, record: PolicyRecord, now: date) -> StoreAction:
        """Apply a record that already passed signature checks and is active.

        Freshness is decided purely on validFrom against the live slot: an
        identical policy is a no-op, anything not newer is rejected as a
        replay, a newer policy is stored and a newer revocation leaves a
        tombstone. A revocation of nothing is a no-op; poison records are
        never stored.
        """
        # ``_exact``'s read, keeping the normal form for the write: a plain
        # str even for a subclass. A slot's domain is its key.
        slots = self._slots
        slot = slots.get(domain)
        if slot is not None:
            domain = slot.domain
        else:
            normal = normalize_domain(domain)
            if normal is not domain:
                slot = slots.get(normal)
            domain = normal
        if slot is not None and now > slot.valid_to:
            slot = None
        held = isinstance(slot, StoredPolicy)
        # A parse memo hit is the very record the slot holds; == builds two tuples.
        if held and (slot.record is record or slot.record == record):
            return _UNCHANGED
        if slot is not None and record.valid_from <= slot.valid_from:
            return _REJECTED_STALE
        if record.revoke:
            if slot is not None:
                self._slots[domain] = Tombstone(domain, record.valid_from, record.valid_to)
            return _REVOKED_DELETED if held else _UNCHANGED
        self._slots[domain] = StoredPolicy(domain, record)
        return _REPLACED if held else _STORED_NEW

    def observe_absence(self, domain: str, now: date) -> StoreAction:
        """React to a query that produced no usable policy record: a live
        cached entry means someone is suppressing the record, so raise the
        alarm and keep enforcing from the cache."""
        if isinstance(self._exact(domain, now), StoredPolicy):
            return _DROP_ALARM
        return _UNCHANGED

    def lookup(self, domain: str, now: date) -> StoredPolicy | None:
        """Governing entry for a domain: itself, else the nearest ancestor
        whose record opted its subdomains in. Expired entries never govern.
        The ancestors are what follows each of the name's dots in turn.
        """
        name = normalize_domain(domain)
        own = True
        while True:
            slot = self._slot(name, now)
            if isinstance(slot, StoredPolicy) and (own or slot.record.include_sub_domain):
                return slot
            dot = name.find(".")
            if dot < 0:
                return None
            name = name[dot + 1:]
            own = False

    def get_exact(self, domain: str, now: date) -> StoredPolicy | None:
        slot = self._exact(domain, now)
        return slot if isinstance(slot, StoredPolicy) else None

    def entries(self) -> tuple[StoredPolicy, ...]:
        """Every cached policy in domain order, expired ones included."""
        return self._sorted(StoredPolicy)

    def tombstones(self) -> tuple[Tombstone, ...]:
        """Every tombstone in domain order, expired ones included."""
        return self._sorted(Tombstone)

    def _sorted(self, kind: type) -> tuple:
        return tuple(s for _, s in sorted(self._slots.items()) if isinstance(s, kind))

    # -- persistence

    def to_text(self) -> str:
        """Every POLICY line in domain order, then every TOMBSTONE line."""
        policies: list[str] = []
        tombstones: list[str] = []
        for domain, slot in sorted(self._slots.items()):
            check_field(StoreFileError, "domain", domain)
            if isinstance(slot, StoredPolicy):
                policies.append(f"POLICY {domain} {serialize_policy(slot.record)}")
            else:
                tombstones.append(
                    f"TOMBSTONE {domain} {format_policy_date(slot.valid_from)} "
                    f"{format_policy_date(slot.valid_to)}"
                )
        lines = policies + tombstones
        return "\n".join(lines) + ("\n" if lines else "")

    def _parse_line(self, line: str) -> None:
        # A policy text is one field or several; a tombstone has two dates.
        kind, *fields = line.split(None, 2 if line.startswith("POLICY") else 3)
        if kind not in ("POLICY", "TOMBSTONE") or len(fields) != (2 if kind == "POLICY" else 3):
            raise StoreFileError(f"unrecognised line {line!r}")
        domain = check_field(StoreFileError, "domain", normalize_domain(fields[0]))
        if domain in self._slots:
            raise StoreFileError(f"duplicate domain {domain}")
        if kind == "POLICY":
            text = fields[1]
            # A policy text starts with a directive name, never a digit: a
            # digit starts the older form's stored-at date, checked and dropped.
            if text[0].isdigit():
                stamp, *policy = text.split(None, 1)
                parse_policy_date(stamp, "stored-at")
                text = "".join(policy)
            record = parse_policy(text)
            if record.revoke:
                raise StoreFileError("a cached policy cannot carry revoke=1")
            self._slots[domain] = StoredPolicy(domain, record)
        else:
            valid_from = parse_policy_date(fields[1], "valid_from")
            valid_to = parse_policy_date(fields[2], "valid_to")
            if valid_from > valid_to:
                raise StoreFileError("tombstone valid_from is later than valid_to")
            self._slots[domain] = Tombstone(domain, valid_from, valid_to)
