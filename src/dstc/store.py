"""Client-side cache of verified policies, one entry per domain.

The cache is what turns one honest first connection into lasting protection:
a stored policy outranks any later record with an older issuance date, a
revocation leaves a tombstone behind so the revoked policy cannot be replayed
back in, and the absence of a record for a domain with a live cached policy
is flagged as a dropping attack instead of silently downgrading.

Persistence format (UTF-8, line oriented):

  POLICY <domain> <stored_at dd-mm-yyyy> <canonical policy string>
  TOMBSTONE <domain> <valid_from> <valid_to>
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import date
from enum import Enum

from .dnssec import normalize_domain
from .policy import (
    PolicyRecord,
    PolicyStatus,
    format_policy_date,
    parse_policy,
    parse_policy_date,
    policy_status,
    serialize_policy,
)


class StoreAction(Enum):
    STORED_NEW = "StoredNew"
    REPLACED = "Replaced"
    REJECTED_STALE = "RejectedStale"
    REVOKED_DELETED = "RevokedDeleted"
    UNCHANGED = "Unchanged"
    DROP_ALARM = "DropAlarm"


class StoreFileError(ValueError):
    """A persistence file could not be loaded."""


@dataclass(frozen=True)
class StoredPolicy:
    domain: str
    record: PolicyRecord
    stored_at: date
    source_serial: int  # audit ordering only, never a policy input


@dataclass(frozen=True)
class Tombstone:
    """Marker left by a revocation; blocks replays until valid_to passes."""

    domain: str
    valid_from: date
    valid_to: date


class PolicyStore:
    """Single-writer, multi-reader policy cache with revocation tombstones."""

    def __init__(self):
        self._entries: dict[str, StoredPolicy] = {}
        self._tombstones: dict[str, Tombstone] = {}
        self._serial = 0
        self._lock = threading.RLock()

    # -- core update rules

    def update(self, domain: str, record: PolicyRecord, now: date) -> StoreAction:
        """Apply a record that already passed signature checks and is active.

        Freshness is decided purely on validFrom: newer replaces (or, with
        the revoke flag, deletes), older or conflicting-equal is rejected as
        a replay, identical is a no-op. Revocations of nothing are no-ops
        too; poison records are never stored.
        """
        domain = normalize_domain(domain)
        with self._lock:
            tombstone = self._live_tombstone(domain, now)
            if tombstone is not None:
                if record.valid_from <= tombstone.valid_from:
                    return StoreAction.REJECTED_STALE
                if record.revoke:
                    self._tombstones[domain] = Tombstone(
                        domain, record.valid_from, record.valid_to
                    )
                    return StoreAction.UNCHANGED
                del self._tombstones[domain]
                self._put(domain, record, now)
                return StoreAction.STORED_NEW

            entry = self._entries.get(domain)
            if entry is None:
                if record.revoke:
                    return StoreAction.UNCHANGED
                self._put(domain, record, now)
                return StoreAction.STORED_NEW
            if record.valid_from > entry.record.valid_from:
                if record.revoke:
                    del self._entries[domain]
                    self._tombstones[domain] = Tombstone(
                        domain, record.valid_from, record.valid_to
                    )
                    return StoreAction.REVOKED_DELETED
                self._put(domain, record, now)
                return StoreAction.REPLACED
            if record.valid_from < entry.record.valid_from:
                return StoreAction.REJECTED_STALE
            if record == entry.record:
                return StoreAction.UNCHANGED
            return StoreAction.REJECTED_STALE

    def observe_absence(self, domain: str, disposition, now: date) -> StoreAction:
        """React to a query that produced no usable policy record.

        A live cached entry means someone is suppressing the record: raise
        the alarm and keep enforcing from the cache. An expired entry is
        evicted so the next contact counts as a first connection.
        """
        domain = normalize_domain(domain)
        with self._lock:
            self._live_tombstone(domain, now)  # lazy tombstone expiry
            entry = self._entries.get(domain)
            if entry is None:
                return StoreAction.UNCHANGED
            if policy_status(entry.record, now) is PolicyStatus.EXPIRED:
                del self._entries[domain]
                return StoreAction.UNCHANGED
            return StoreAction.DROP_ALARM

    def lookup(self, domain: str, now: date) -> StoredPolicy | None:
        """Governing entry for a domain: itself, else the nearest ancestor
        whose record opted its subdomains in. Expired entries never govern.
        """
        domain = normalize_domain(domain)
        with self._lock:
            entry = self._usable(domain, now)
            if entry is not None:
                return entry
            labels = domain.split(".")
            for i in range(1, len(labels)):
                entry = self._usable(".".join(labels[i:]), now)
                if entry is not None and entry.record.include_sub_domain:
                    return entry
            return None

    def get_exact(self, domain: str, now: date) -> StoredPolicy | None:
        return self._usable(normalize_domain(domain), now)

    def entries(self) -> tuple[StoredPolicy, ...]:
        with self._lock:
            return tuple(self._entries[d] for d in sorted(self._entries))

    def tombstones(self) -> tuple[Tombstone, ...]:
        with self._lock:
            return tuple(self._tombstones[d] for d in sorted(self._tombstones))

    def _usable(self, domain: str, now: date) -> StoredPolicy | None:
        entry = self._entries.get(domain)
        if entry is None:
            return None
        if policy_status(entry.record, now) is PolicyStatus.EXPIRED:
            return None
        return entry

    def _put(self, domain: str, record: PolicyRecord, now: date) -> None:
        self._serial += 1
        self._entries[domain] = StoredPolicy(domain, record, now, self._serial)

    def _live_tombstone(self, domain: str, now: date) -> Tombstone | None:
        tombstone = self._tombstones.get(domain)
        if tombstone is not None and now > tombstone.valid_to:
            del self._tombstones[domain]
            return None
        return tombstone

    # -- persistence

    def to_text(self) -> str:
        with self._lock:
            lines = [
                f"POLICY {e.domain} {format_policy_date(e.stored_at)} "
                f"{serialize_policy(e.record)}"
                for e in self.entries()
            ]
            lines += [
                f"TOMBSTONE {t.domain} {format_policy_date(t.valid_from)} "
                f"{format_policy_date(t.valid_to)}"
                for t in self.tombstones()
            ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "PolicyStore":
        store = cls()
        seen: set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(None, 3)
            try:
                if fields[0] == "POLICY" and len(fields) == 4:
                    domain = normalize_domain(fields[1])
                    if domain in seen:
                        raise StoreFileError(f"duplicate domain {domain}")
                    seen.add(domain)
                    store._put(domain, parse_policy(fields[3]), parse_policy_date(fields[2], "stored_at"))
                elif fields[0] == "TOMBSTONE" and len(fields) == 4:
                    domain = normalize_domain(fields[1])
                    if domain in seen:
                        raise StoreFileError(f"duplicate domain {domain}")
                    seen.add(domain)
                    store._tombstones[domain] = Tombstone(
                        domain,
                        parse_policy_date(fields[2], "valid_from"),
                        parse_policy_date(fields[3], "valid_to"),
                    )
                else:
                    raise StoreFileError(f"line {lineno}: unrecognised line {line!r}")
            except StoreFileError:
                raise
            except ValueError as exc:
                raise StoreFileError(f"line {lineno}: {exc}") from exc
        return store

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "PolicyStore":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())
