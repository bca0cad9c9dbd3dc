"""Span recording around the public entry points of each layer.

The traced run wraps, from outside the program, the names that
``dstc.enforcement`` imports and calls (the dnssec, policy and store entry
points) plus the calls the benchmark loop makes itself. Spans are kept as
per-name aggregates in memory: calls, total time and time covered by child
spans, so self time is total minus child. Return values are counted at the
same boundaries.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from dstc import dnssec, enforcement, handshake
from dstc.dnssec import Disposition, VerifyStatus
from dstc.store import PolicyStore

SPANS = (
    "dnssec.resolve",
    "dnssec.anchor_lookup",
    "dnssec.anchor_key",
    "dnssec.verify",
    "dnssec.canonical",
    "policy.parse",
    "policy.status",
    "store.update",
    "store.observe_absence",
    "store.lookup",
    "store.get_exact",
    "store.persist",
    "enforcement.decide",
    "enforcement.apply",
    "handshake.run",
    "bench.loop",
)


class Recorder:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, child
        self.counts = Counter()
        self.last_action = None  # StoreAction of the latest contact
        self._stack = []  # child time of each open span

    def begin(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def end(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        child = self._stack.pop()
        stat = self.stats[name]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += child
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name: str, fn, observe=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            start = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(name, start)
            if observe is not None:
                observe(result)
            return result

        return traced

    def self_time(self, name: str) -> float:
        _, total, child = self.stats[name]
        return total - child

    # -- return values counted at the layer boundary

    def _resolved(self, response):
        if response.disposition is not Disposition.ANSWERED:
            self.counts["resolve.miss"] += 1

    def _verified(self, status):
        if status is VerifyStatus.INVALID_SIGNATURE:
            self.counts["verify.invalid"] += 1

    def _stored(self, action):
        self.last_action = action
        self.counts[action] += 1

    def _decided(self, decision):
        self.counts[decision.reason] += 1

    def _shaken(self, outcome):
        self.counts[outcome.result] += 1
        self.counts["hellos"] += sum(
            1 for line in outcome.transcript if line.startswith("client: ClientHello")
        )

    def loop_calls(self, checkpoint):
        """The calls the benchmark loop makes, wrapped: a contact's calls in
        the order ``workloads.contact`` takes them, and the checkpoint."""
        contact_calls = (
            self.wrap("dnssec.resolve", dnssec.resolve, self._resolved),
            self.wrap("enforcement.decide", enforcement.decide, self._decided),
            self.wrap("enforcement.apply", enforcement.apply),
            self.wrap("handshake.run", handshake.run_handshake, self._shaken),
        )
        return contact_calls, self.wrap("store.persist", checkpoint)

    @contextmanager
    def patched(self):
        """Wrap the entry points enforcement reaches, restoring them on exit."""
        targets = (
            (enforcement, "verify_rrset", "dnssec.verify", self._verified),
            (enforcement, "parse_policy", "policy.parse", None),
            (enforcement, "policy_status", "policy.status", None),
            (dnssec.TrustAnchorSet, "lookup", "dnssec.anchor_lookup", None),
            (dnssec.TrustAnchor, "public_key", "dnssec.anchor_key", None),
            (dnssec.SignedRRset, "canonical_bytes", "dnssec.canonical", None),
            (PolicyStore, "update", "store.update", self._stored),
            (PolicyStore, "observe_absence", "store.observe_absence", self._stored),
            (PolicyStore, "lookup", "store.lookup", None),
            (PolicyStore, "get_exact", "store.get_exact", None),
        )
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, observe in targets:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

