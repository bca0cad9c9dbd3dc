"""The three seeded workloads: zone, anchors, event stream and model answers.

Every workload starts from ``survey.generate_corpus()`` (7080 server
profiles, 6500 of them reachable by a strict client) and a zone whose single
trust anchor covers every corpus name. ``--seed`` picks which names publish,
the contact order and the attack stream; the program under test only ever
sees the signed zone, the anchors and the queries.

A workload's events are replayed once per timed pass. ``reset`` runs untimed
before each pass: it returns the policy cache the pass starts from and puts
the zone back into its start state. In ``first-contact`` and
``attack-churn`` it also gives the zone a new key and re-signs every record
set, so no pass serves an answer the process has seen before.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass, replace
from datetime import date
from functools import partial
from typing import Callable, NamedTuple

from dstc.dnssec import TrustAnchor, TrustAnchorSet, ZoneKeyPair, ZoneStore, resolve, sign_rrset
from dstc.enforcement import ATTACK_REASONS, DEFAULT_CLIENT, Reason, apply, decide
from dstc.handshake import NO_ATTACK, AttackerStrategy, ServerProfile, run_handshake
from dstc.policy import PolicyRecord, serialize_policy
from dstc.store import PolicyStore, StoreAction
from dstc.survey import generate_corpus

from oracle import CacheModel, expect, strict_reachable

NOW = date(2018, 7, 1)
APEX = "example"
VALID_FROM, VALID_TO = date(2018, 5, 1), date(2019, 5, 1)

# attack-churn: registered domains, events per pass, events between checkpoints.
CHURN_DOMAINS = 1000
CHURN_EVENTS = 5000
CHECKPOINT_EVERY = 1000

# The untraced calls of one contact, in the order ``contact`` takes them.
CONTACT_CALLS = (resolve, decide, apply, run_handshake)

def fresh_key() -> ZoneKeyPair:
    """A new zone signing key under a key id of its own."""
    return ZoneKeyPair.generate(f"zsk-{secrets.token_hex(4)}")


def contact(calls, zone, anchors, store, name, profile, attack):
    """One client contact: resolve -> decide -> apply -> handshake."""
    resolve_, decide_, apply_, handshake_ = calls
    decision = decide_(resolve_(zone, name), anchors, store, name, NOW)
    config = apply_(decision, DEFAULT_CLIENT)
    return decision, config, handshake_(config, profile, attack)


class Event(NamedTuple):
    """One contact: optional zone change, resolve..handshake, optional undo."""

    kind: str
    name: str
    profile: ServerProfile
    attack: AttackerStrategy
    before: Callable | None
    after: Callable | None
    expect: object


class Checkpoint(NamedTuple):
    """Save and reload the cache; ``state`` is the model's cache content."""

    state: tuple


@dataclass
class Workload:
    signed: "SignedZone"
    events: list
    reset: Callable[[], PolicyStore]
    final_state: tuple
    required_spans: frozenset
    env: dict


def store_state(store: PolicyStore) -> tuple[dict, dict]:
    """Cache content in the model's form, for comparison with CacheModel."""
    entries = {e.domain: e.record for e in store.entries()}
    tombs = {t.domain: (t.valid_from, t.valid_to) for t in store.tombstones()}
    return entries, tombs


class SignedZone:
    """Every corpus name in one zone under one trust anchor.

    Record sets are planned under a key of the workload's choosing and
    signed by ``rekey``, which gives the zone a new signing key, a new
    anchor and a new signature on every planned set.
    """

    def __init__(self):
        self.corpus = generate_corpus()
        self.zone = ZoneStore()
        for profile in self.corpus:
            self.zone.register_name(profile.domain)
        self.anchors = TrustAnchorSet()
        self.rrsets = {}
        self._plans = {}
        self._served = True

    def plan(self, key, domain: str, records: tuple, inception: date, expiration: date):
        if key not in self._plans:
            values = [serialize_policy(r) for r in records]
            self._plans[key] = (domain, values, inception, expiration)
        return key

    def rekey(self, keys: ZoneKeyPair) -> None:
        self.anchors = TrustAnchorSet()
        self.anchors.add(TrustAnchor(APEX, keys.key_id, keys.public_der()))
        self.rrsets = {key: sign_rrset(keys, *plan) for key, plan in self._plans.items()}
        self._served = False

    def refresh(self) -> None:
        """Re-key unless the current signatures have not been served yet."""
        if self._served:
            self.rekey(fresh_key())
        self._served = True

    def publish(self, key) -> None:
        self.zone.publish(self.rrsets[key])

    def replay(self, key) -> None:
        self.zone.attacker_replace_rrset(self._plans[key][0], self.rrsets[key])


def _record(domain, valid_from, valid_to, include_sub=False, revoke=False):
    return PolicyRecord(
        valid_from=valid_from,
        valid_to=valid_to,
        report=f"admin@{domain}",
        include_sub_domain=include_sub,
        revoke=revoke,
    )


def _env(z: SignedZone, registered: int, events: list) -> dict:
    return {
        "zone_names": len(z.corpus),
        "registered": registered,
        "contacts_per_pass": sum(1 for e in events if type(e) is Event),
        "checkpoints_per_pass": sum(1 for e in events if type(e) is Checkpoint),
    }


def _spans(events) -> frozenset:
    spans = set()
    for ev in events:
        spans |= ev.expect.spans if type(ev) is Event else {"store.persist", "bench.loop"}
    return frozenset(spans)


def warm_revisit(seed: int, keys: ZoneKeyPair) -> Workload:
    """Every strict-reachable server publishes; a warm cache revisits them.

    Every pass serves the answers the set-up's pre-warm pass has already
    seen, as revisits do, so a memo of any kind shows here in full.
    """
    rng = random.Random(seed)
    z = SignedZone()
    profiles = [p for p in z.corpus if strict_reachable(p)]
    rng.shuffle(profiles)
    model = CacheModel()
    for p in profiles:
        record = _record(p.domain, VALID_FROM, VALID_TO)
        z.plan(p.domain, p.domain, (record,), VALID_FROM, VALID_TO)
        model.answered(p.domain, record)
    z.rekey(keys)
    for p in profiles:
        z.publish(p.domain)

    store = PolicyStore()
    for p in profiles:  # the set-up's pre-warm pass
        contact(CONTACT_CALLS, z.zone, z.anchors, store, p.domain, p, NO_ATTACK)
    if store_state(store) != model.state():
        raise RuntimeError("warm-revisit: pre-warmed cache differs from the model")

    events = [
        Event("revisit", p.domain, p, NO_ATTACK, None, None,
              expect(model.answered(p.domain, model.entries[p.domain]), p, NO_ATTACK))
        for p in profiles
    ]
    return Workload(z, events, lambda: store,
                    model.state(), _spans(events), _env(z, len(profiles), events))


def first_contact(seed: int, keys: ZoneKeyPair) -> Workload:
    """Early adoption: only TLS-1.2-only strict-reachable servers publish,
    and each pass meets every name, and every answer, for the first time."""
    rng = random.Random(seed)
    z = SignedZone()
    publishers = {}
    for p in z.corpus:
        if strict_reachable(p) and len(p.supported_versions) == 1:
            # Half opt their subdomains in, so both ancestor branches occur.
            record = _record(p.domain, VALID_FROM, VALID_TO, include_sub=rng.random() < 0.5)
            z.plan(p.domain, p.domain, (record,), VALID_FROM, VALID_TO)
            publishers[p.domain] = record

    def reset():
        z.refresh()
        for domain in publishers:
            z.publish(domain)
        return PolicyStore()

    z.rekey(keys)

    # Every corpus name, plus the absent www. name under every publisher.
    targets = [(p.domain, p) for p in z.corpus]
    targets += [(f"www.{p.domain}", p) for p in z.corpus if p.domain in publishers]
    rng.shuffle(targets)
    model = CacheModel()
    events = []
    for name, profile in targets:
        record = publishers.get(name)
        if record is not None:
            kind, outcome = "publisher", model.answered(name, record)
        else:
            kind = "www" if name.startswith("www.") else "absent"
            outcome = model.absent(name)
        events.append(Event(kind, name, profile, NO_ATTACK, None, None,
                            expect(outcome, profile, NO_ATTACK)))
    return Workload(z, events, reset,
                    model.state(), _spans(events), _env(z, len(publishers), events))


# attack-churn version ladder of every registered domain: validFrom moves
# forward from old to current to newer; the last version revokes.
_LADDER = (date(2018, 1, 1), date(2018, 3, 1), date(2018, 5, 1), date(2018, 6, 1))
_OLD, _CUR, _NEW, _REV = range(4)
_LADDER_END = date(2020, 1, 1)

_HS_ATTACKS = {
    "hs-drop": AttackerStrategy.parse("drop:2"),
    "hs-fragment": AttackerStrategy.parse("fragment"),
    "hs-modver": AttackerStrategy.parse("modver:TLS1.0"),
}
# Event kinds of attack-churn. Neither the paper nor the corpus gives how
# often each occurs, so every kind a domain's state allows is equally likely.
CHURN_KINDS = (
    "revisit", "hs-drop", "hs-fragment", "hs-modver", "rotate", "revoke",
    "replay", "drop", "tamper", "ambiguous",
)


def attack_churn(seed: int, keys: ZoneKeyPair) -> Workload:
    """Honest revisits interleaved with owner rotation and revocation,
    replays, record drops, signature tampering, handshake attacks and cache
    checkpoints, from a cold cache."""
    rng = random.Random(seed)
    z = SignedZone()
    reachable = [p for p in z.corpus if strict_reachable(p)]
    chosen = rng.sample(reachable, CHURN_DOMAINS)
    ladders = {
        p.domain: [_record(p.domain, vf, _LADDER_END, revoke=(i == _REV))
                   for i, vf in enumerate(_LADDER)]
        for p in chosen
    }

    def rung(domain, i):
        record = ladders[domain][i]
        return z.plan((domain, i), domain, (record,), record.valid_from, _LADDER_END)

    def ambiguous(domain):
        """A signed set with two policy records, as a broken zone tool emits it."""
        old, cur = ladders[domain][_OLD], ladders[domain][_CUR]
        return z.plan((domain, "two"), domain, (old, cur), cur.valid_from, _LADDER_END)

    current = [rung(p.domain, _CUR) for p in chosen]
    signature_bytes = keys.public_key.key_size // 8
    model = CacheModel()
    published = {p.domain: _CUR for p in chosen}
    events = []
    seen_actions, seen_reasons = set(), set()
    for i in range(1, CHURN_EVENTS + 1):
        p = chosen[rng.randrange(len(chosen))]
        d = p.domain
        pub = published[d]
        kinds = [k for k in CHURN_KINDS
                 if (k != "rotate" or pub == _CUR) and (k != "revoke" or pub != _REV)]
        kind = kinds[rng.randrange(len(kinds))]
        attack = _HS_ATTACKS.get(kind, NO_ATTACK)
        before = after = None
        restore = partial(z.publish, rung(d, pub))
        if kind in ("rotate", "revoke"):
            pub = published[d] = _NEW if kind == "rotate" else _REV
            before = partial(z.publish, rung(d, pub))
            outcome = model.answered(d, ladders[d][pub])
        elif kind == "replay":
            old = rng.randrange(pub)
            before, after = partial(z.replay, rung(d, old)), restore
            outcome = model.answered(d, ladders[d][old])
        elif kind == "drop":
            before, after = partial(z.zone.attacker_drop_rrset, d), restore
            outcome = model.absent(d)
        elif kind == "tamper":
            byte = rng.randrange(signature_bytes)
            before, after = partial(z.zone.attacker_tamper_signature, d, byte), restore
            outcome = model.failed(d, Reason.INVALID_SIGNATURE)
        elif kind == "ambiguous":
            before, after = partial(z.replay, ambiguous(d)), restore
            outcome = model.failed(d, Reason.AMBIGUOUS_RECORDS)
        else:  # an honest answer, possibly under a handshake attack
            outcome = model.answered(d, ladders[d][pub])
        if kind == "hs-fragment":
            # The fragmentation attack of the paper needs a server with the bug.
            p = replace(p, fragmentation_bug=True)
        ex = expect(outcome, p, attack)
        seen_actions.add(ex.action)
        seen_reasons.add(ex.reason)
        events.append(Event(kind, d, p, attack, before, after, ex))
        if i % CHECKPOINT_EVERY == 0:
            events.append(Checkpoint(model.state()))

    # The stream must keep exercising every cache transition and every
    # attack-signalling reason, or the workload has slid to the happy path.
    missing = (set(StoreAction) - seen_actions) | (ATTACK_REASONS - seen_reasons)
    if missing:
        raise RuntimeError(f"attack-churn: seed {seed} stream never hits {sorted(m.value for m in missing)}")

    def reset():
        z.refresh()
        for key in current:
            z.publish(key)
        return PolicyStore()

    z.rekey(keys)
    return Workload(z, events, reset,
                    model.state(), _spans(events), _env(z, len(chosen), events))


WORKLOADS = {
    "warm-revisit": warm_revisit,
    "first-contact": first_contact,
    "attack-churn": attack_churn,
}
