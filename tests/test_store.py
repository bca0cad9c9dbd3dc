import random
import re
from dataclasses import replace
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings, strategies as st

from dstc.dnssec import normalize_domain
from dstc.policy import MalformedReport, PolicyRecord, UnknownTlsLevel, serialize_policy
from dstc.store import PolicyStore, StoreAction, StoreFileError, StoredPolicy, Tombstone

NOW = date(2018, 7, 1)
VALID_TO = date(2019, 5, 1)


def record(valid_from=date(2018, 5, 1), valid_to=VALID_TO, revoke=False, **kwargs):
    kwargs.setdefault("report", "admin@tls12.com")
    return PolicyRecord(valid_from=valid_from, valid_to=valid_to, revoke=revoke, **kwargs)


def test_first_write_stores(now):
    store = PolicyStore()
    assert store.update("tls12.test", record(), now) is StoreAction.STORED_NEW
    assert store.get_exact("tls12.test", now).record == record()


def test_newer_replaces(now):
    store = PolicyStore()
    store.update("tls12.test", record(date(2018, 5, 1)), now)
    action = store.update("tls12.test", record(date(2018, 6, 1)), now)
    assert action is StoreAction.REPLACED
    assert store.get_exact("tls12.test", now).record.valid_from == date(2018, 6, 1)


def test_stale_replay_rejected(now):
    store = PolicyStore()
    store.update("tls12.test", record(date(2018, 5, 1)), now)
    action = store.update("tls12.test", record(date(2018, 1, 1)), now)
    assert action is StoreAction.REJECTED_STALE
    assert store.get_exact("tls12.test", now).record.valid_from == date(2018, 5, 1)


def test_identical_redelivery_is_unchanged(now):
    store = PolicyStore()
    held = record()
    store.update("tls12.test", held, now)
    assert store.update("tls12.test", held, now) is StoreAction.UNCHANGED
    # An equal record that is not the held instance (no parse memo hit).
    redelivered = record()
    assert redelivered == held and redelivered is not held
    assert store.update("tls12.test", redelivered, now) is StoreAction.UNCHANGED
    assert store.get_exact("tls12.test", now).record is held


def test_equal_validfrom_different_content_rejected(now):
    store = PolicyStore()
    store.update("tls12.test", record(), now)
    conflicting = record(include_sub_domain=True)
    assert store.update("tls12.test", conflicting, now) is StoreAction.REJECTED_STALE
    other_report = record(report="other@tls12.com")
    assert store.update("tls12.test", other_report, now) is StoreAction.REJECTED_STALE
    assert store.get_exact("tls12.test", now).record == record()


def test_revocation_deletes_and_leaves_tombstone(now):
    store = PolicyStore()
    store.update("tls12.test", record(date(2018, 5, 1)), now)
    action = store.update("tls12.test", record(date(2018, 6, 1), revoke=True), now)
    assert action is StoreAction.REVOKED_DELETED
    assert store.get_exact("tls12.test", now) is None
    assert len(store.tombstones()) == 1


def test_slot_values_are_slotted_and_compare_by_their_fields_alone():
    policy = StoredPolicy("tls12.test", record())
    tombstone = Tombstone("tls12.test", date(2018, 5, 1), VALID_TO)
    for value, fields in ((policy, ("tls12.test", record())),
                          (tombstone, ("tls12.test", date(2018, 5, 1), VALID_TO))):
        assert not hasattr(value, "__dict__")
        assert value == replace(value) and value != replace(value, domain="other.test")
        assert hash(value) == hash(replace(value)) == hash(fields)
    assert (policy.valid_from, policy.valid_to) == (date(2018, 5, 1), VALID_TO)
    assert repr(policy) == f"StoredPolicy(domain='tls12.test', record={record()!r})"
    assert repr(tombstone) == (
        "Tombstone(domain='tls12.test', valid_from=datetime.date(2018, 5, 1), "
        "valid_to=datetime.date(2019, 5, 1))"
    )


def test_revocation_of_nothing_is_unchanged(now):
    store = PolicyStore()
    action = store.update("tls12.test", record(revoke=True), now)
    assert action is StoreAction.UNCHANGED
    assert not store.entries()
    assert not store.tombstones()


def test_revocation_needs_strictly_newer_validfrom(now):
    store = PolicyStore()
    store.update("tls12.test", record(date(2018, 5, 1)), now)
    same_day_revoke = record(date(2018, 5, 1), revoke=True)
    assert store.update("tls12.test", same_day_revoke, now) is StoreAction.REJECTED_STALE
    assert store.get_exact("tls12.test", now) is not None


def test_tombstone_blocks_replays_until_expiry(now):
    store = PolicyStore()
    old = record(date(2018, 5, 1))
    store.update("tls12.test", old, now)
    store.update("tls12.test", record(date(2018, 6, 1), revoke=True), now)

    assert store.update("tls12.test", old, now) is StoreAction.REJECTED_STALE
    # the revoking record itself replayed is also stale
    replayed_revoke = record(date(2018, 6, 1), revoke=True)
    assert store.update("tls12.test", replayed_revoke, now) is StoreAction.REJECTED_STALE

    # after the tombstone's validTo passes, the slate is clean
    later = VALID_TO + timedelta(days=1)
    fresh = record(date(2019, 5, 2), valid_to=date(2020, 5, 1))
    assert store.update("tls12.test", fresh, later) is StoreAction.STORED_NEW


def test_newer_policy_supersedes_tombstone(now):
    store = PolicyStore()
    store.update("tls12.test", record(date(2018, 5, 1)), now)
    store.update("tls12.test", record(date(2018, 6, 1), revoke=True), now)
    action = store.update("tls12.test", record(date(2018, 7, 1)), now)
    assert action is StoreAction.STORED_NEW
    assert not store.tombstones()
    # monotonicity still holds against pre-revocation replays
    assert store.update("tls12.test", record(date(2018, 5, 1)), now) is StoreAction.REJECTED_STALE


def test_newer_revocation_refreshes_tombstone(now):
    store = PolicyStore()
    store.update("tls12.test", record(date(2018, 5, 1)), now)
    store.update("tls12.test", record(date(2018, 6, 1), revoke=True), now)
    action = store.update("tls12.test", record(date(2018, 8, 1), revoke=True), now)
    assert action is StoreAction.UNCHANGED
    assert store.tombstones()[0].valid_from == date(2018, 8, 1)


def test_absence_with_live_entry_raises_alarm(now):
    store = PolicyStore()
    store.update("tls12.test", record(), now)
    action = store.observe_absence("tls12.test", now)
    assert action is StoreAction.DROP_ALARM
    # the stored policy stays in force
    assert store.get_exact("tls12.test", now) is not None


def test_absence_with_no_entry_is_unchanged(now):
    store = PolicyStore()
    assert store.observe_absence("tls12.test", now) is StoreAction.UNCHANGED


def test_absence_after_expiry_is_unchanged_and_keeps_the_slot(now):
    store = PolicyStore()
    store.update("tls12.test", record(), now)
    after = VALID_TO + timedelta(days=1)
    assert store.observe_absence("tls12.test", after) is StoreAction.UNCHANGED
    assert store.entries() == (StoredPolicy("tls12.test", record()),)
    # a clock set back sees the entry again
    assert store.observe_absence("tls12.test", now) is StoreAction.DROP_ALARM
    # next contact is a first connection again, and its record overwrites the slot
    fresh = record(date(2019, 6, 1), valid_to=date(2020, 6, 1))
    assert store.update("tls12.test", fresh, after) is StoreAction.STORED_NEW
    assert store.entries() == (StoredPolicy("tls12.test", fresh),)


EXPIRED = record(date(2018, 3, 1), valid_to=date(2018, 6, 1))


@pytest.mark.parametrize("incoming, action, kept", [
    (record(date(2018, 1, 1)), StoreAction.STORED_NEW, "incoming"),
    (record(date(2018, 6, 1)), StoreAction.STORED_NEW, "incoming"),
    (record(date(2018, 6, 1), revoke=True), StoreAction.UNCHANGED, "expired"),
], ids=["older-policy", "newer-policy", "newer-revocation"])
def test_update_over_an_expired_entry_acts_as_on_an_empty_cache(now, incoming, action, kept):
    """The action is the empty cache's. A stored record overwrites the
    expired slot; a revocation of nothing leaves it in place."""
    expired, empty = PolicyStore(), PolicyStore()
    expired.update("tls12.test", EXPIRED, date(2018, 3, 1))
    assert expired.update("tls12.test", incoming, now) is action
    assert empty.update("tls12.test", incoming, now) is action
    held = incoming if kept == "incoming" else EXPIRED
    assert expired.entries() == (StoredPolicy("tls12.test", held),)
    assert not expired.tombstones()
    assert expired.get_exact("tls12.test", now) == empty.get_exact("tls12.test", now)


@pytest.mark.parametrize("read", [
    lambda store, now: store.get_exact("tls12.test", now),
    lambda store, now: store.lookup("tls12.test", now),
    lambda store, now: store.lookup("www.tls12.test", now),
], ids=["get_exact", "lookup", "lookup-ancestor"])
def test_reads_skip_an_expired_entry_and_leave_it_in_place(now, read):
    store = PolicyStore()
    store.update("tls12.test", replace(EXPIRED, include_sub_domain=True), date(2018, 3, 1))
    text = store.to_text()
    assert read(store, now) is None
    assert store.to_text() == text
    # a clock set back to the entry's window sees it again
    assert read(store, date(2018, 3, 1)).record == replace(EXPIRED, include_sub_domain=True)


def test_expired_slots_stay_in_the_file_and_keep_every_decision(now):
    store = PolicyStore()
    store.update("old.test", replace(EXPIRED, include_sub_domain=True), date(2018, 3, 1))
    store.update("gone.test", record(date(2018, 3, 1), valid_to=date(2018, 6, 1)),
                 date(2018, 3, 1))
    store.update("gone.test", record(date(2018, 4, 1), valid_to=date(2018, 6, 1), revoke=True),
                 date(2018, 4, 1))
    store.update("tls12.test", record(), now)
    live = PolicyStore()
    live.update("tls12.test", record(), now)

    store = PolicyStore.from_text(store.to_text())
    assert [e.domain for e in store.entries()] == ["old.test", "tls12.test"]
    assert [t.domain for t in store.tombstones()] == ["gone.test"]
    for domain in ("old.test", "www.old.test", "gone.test", "tls12.test"):
        assert store.lookup(domain, now) == live.lookup(domain, now)
        assert store.observe_absence(domain, now) is live.observe_absence(domain, now)
        assert store.update(domain, record(), now) is live.update(domain, record(), now)


def test_load_rejects_a_tombstone_that_ends_before_it_starts():
    with pytest.raises(
        StoreFileError, match="^line 2: tombstone valid_from is later than valid_to$"
    ):
        PolicyStore.from_text("# cache\nTOMBSTONE a.test 01-06-2019 01-01-2018\n")


def test_one_day_tombstone_survives_save_and_load(tmp_path, now):
    # A revocation valid for one day leaves a tombstone with validFrom = validTo.
    store = PolicyStore()
    store.update("tls12.test", record(), now)
    one_day = record(valid_from=now, valid_to=now, revoke=True)
    assert store.update("tls12.test", one_day, now) is StoreAction.REVOKED_DELETED
    path = tmp_path / "cache.txt"
    store.save(path)
    loaded = PolicyStore.load(path)
    assert loaded.tombstones() == store.tombstones()
    assert loaded.update("tls12.test", record(), now) is StoreAction.REJECTED_STALE


def test_load_rejects_a_cached_policy_that_revokes():
    # No writer stores a revoking record; loaded as live, it would give
    # Strict/DropAlarm from a revoked policy once the record is absent.
    revoking = serialize_policy(record(revoke=True))
    with pytest.raises(
        StoreFileError, match="^line 2: a cached policy cannot carry revoke=1$"
    ):
        PolicyStore.from_text(f"# cache\nPOLICY a.test 01-06-2018 {revoking}\n")


def test_lookup_exact_and_subdomain(now):
    store = PolicyStore()
    store.update("example.com", record(include_sub_domain=True), now)
    assert store.lookup("example.com", now) is not None
    assert store.lookup("www.example.com", now).domain == "example.com"
    assert store.lookup("a.b.example.com", now).domain == "example.com"
    assert store.lookup("notexample.com", now) is None


def test_lookup_subdomain_flag_off(now):
    store = PolicyStore()
    store.update("example.com", record(include_sub_domain=False), now)
    assert store.lookup("www.example.com", now) is None


@pytest.mark.parametrize("parent_first", [True, False])
def test_lookup_exact_beats_ancestor(now, parent_first):
    parent = record(include_sub_domain=True)
    child = record(date(2018, 5, 2))
    store = PolicyStore()
    if parent_first:
        store.update("example.com", parent, now)
        store.update("www.example.com", child, now)
    else:
        store.update("www.example.com", child, now)
        store.update("example.com", parent, now)
    assert store.lookup("www.example.com", now).domain == "www.example.com"


def test_lookup_never_returns_expired(now):
    store = PolicyStore()
    store.update("example.com", record(include_sub_domain=True), now)
    after = VALID_TO + timedelta(days=1)
    assert store.lookup("example.com", after) is None
    assert store.lookup("www.example.com", after) is None


def test_persistence_round_trip(now, tmp_path):
    store = PolicyStore()
    store.update("tls12.test", record(), now)
    store.update("sub.tls12.test", record(date(2018, 6, 1)), now)
    store.update("gone.test", record(date(2018, 5, 1)), now)
    store.update("gone.test", record(date(2018, 6, 2), revoke=True), now)

    text = store.to_text()
    reloaded = PolicyStore.from_text(text)
    assert reloaded.to_text() == text
    assert reloaded.entries() == store.entries()
    assert reloaded.tombstones() == store.tombstones()

    path = tmp_path / "store.txt"
    store.save(str(path))
    assert PolicyStore.load(str(path)).to_text() == text


@pytest.mark.parametrize("domain", ["a b.test", "a\nb.test", "a\u2028b.test"])
@pytest.mark.parametrize("revoked", [False, True], ids=["entry", "tombstone"])
def test_writer_refuses_what_the_reader_cannot_read(now, domain, revoked):
    store = PolicyStore()
    store.update(domain, record(), now)
    if revoked:
        store.update(domain, record(date(2018, 6, 1), revoke=True), now)
        assert store.tombstones() and not store.entries()
    with pytest.raises(StoreFileError, match=re.escape(repr(domain))):
        store.to_text()


@pytest.mark.parametrize("field, directive, value, error", [
    ("report", "report=admin@tls12.com", "a b@c.d", MalformedReport),
    (None, "tlsLevel=strict-config", "weak", UnknownTlsLevel),
], ids=["report", "tls_level"])
def test_store_holds_only_records_its_file_reads_back(now, field, directive, value, error):
    # the record the loader would refuse cannot be built, so update never
    # sees it; both refuse with the same check. A record has no tlsLevel
    # field, so only the loader meets that value.
    message = str(error(value))
    if field is not None:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            record(**{field: value})
    store = PolicyStore()
    store.update("a.test", record(), now)
    text = store.to_text()
    assert PolicyStore.from_text(text).to_text() == text
    bad = text.replace(directive, directive.split("=")[0] + "=" + value)
    with pytest.raises(StoreFileError, match=f"^{re.escape(f'line 1: {message}')}$"):
        PolicyStore.from_text(bad)


def test_empty_store_round_trip():
    assert PolicyStore.from_text(PolicyStore().to_text()).to_text() == ""


def test_load_rejects_duplicate_domains(now):
    store = PolicyStore()
    store.update("tls12.test", record(), now)
    line = store.to_text().strip()
    with pytest.raises(StoreFileError, match="^line 2: duplicate domain tls12.test$"):
        PolicyStore.from_text(line + "\n" + line + "\n")


@pytest.mark.parametrize("line, message", [
    ("POLICY . 01-07-2018 {policy}", "line 1: domain ''"),
    ("TOMBSTONE .. 01-05-2018 01-05-2019", "line 1: domain ''"),
], ids=["entry", "tombstone"])
def test_reader_refuses_what_the_writer_cannot_write(line, message):
    text = line.format(policy=serialize_policy(record())) + "\n"
    with pytest.raises(StoreFileError, match=f"^{re.escape(message)} cannot be written as one field$"):
        PolicyStore.from_text(text)


def test_load_rejects_garbage():
    with pytest.raises(StoreFileError):
        PolicyStore.from_text("POLICY half a line\n")


def test_load_rejects_an_unknown_kind_with_tombstone_fields():
    with pytest.raises(StoreFileError, match="^line 1: unrecognised line "):
        PolicyStore.from_text("FOO a.test 01-01-2018 01-01-2019\n")


def test_load_error_names_the_unrecognised_line():
    with pytest.raises(StoreFileError, match=r"line 4: unrecognised line 'BOGUS x'"):
        PolicyStore.from_text("\n# cache\n\nBOGUS x\n")


def _split_join_lookup(store, domain, now):
    """The walk ``lookup`` made before: split the normalised name into
    labels, then join and try each suffix, longest first."""
    labels = normalize_domain(domain).split(".")
    for i in range(len(labels)):
        slot = store._slot(".".join(labels[i:]), now)
        if isinstance(slot, StoredPolicy) and (i == 0 or slot.record.include_sub_domain):
            return slot
    return None


# Empty labels give leading, trailing and doubled dots.
_WALK_NAMES = st.builds(
    lambda head, labels, tail: head + ".".join(labels) + tail,
    st.sampled_from(["", " ", "."]),
    st.lists(st.text(alphabet="aAbBxX-", max_size=3), max_size=5),
    st.sampled_from(["", ".", "..", " "]),
)
# What a suffix holds: an opted-in policy, a policy for itself only, an
# expired opted-in policy, or a tombstone.
_HELD = st.sampled_from(["sub", "own", "expired", "tombstone"])
_EARLIER = date(2018, 1, 1)


def _hold(store, name, held):
    if held == "expired":
        store.update(name, record(_EARLIER, date(2018, 2, 1), include_sub_domain=True), _EARLIER)
    else:
        store.update(name, record(include_sub_domain=held == "sub"), NOW)
    if held == "tombstone":
        store.update(name, record(date(2018, 6, 1), revoke=True), NOW)


@example(name="a.B..x.", held={2: "own", 4: "sub"}, elsewhere=[])
@example(name=".a.b.", held={0: "sub", 2: "sub", 4: "sub"}, elsewhere=["b"])
@settings(max_examples=300, deadline=None)
@given(name=_WALK_NAMES, held=st.dictionaries(st.integers(0, 16), _HELD, max_size=6),
       elsewhere=st.lists(_WALK_NAMES, max_size=3))
def test_lookup_walk_matches_the_split_join_walk(name, held, elsewhere):
    # Slots at suffixes of the name, on a label boundary or not, and elsewhere.
    normalised = normalize_domain(name)
    stores = PolicyStore(), PolicyStore()
    for store in stores:
        for cut, kind in held.items():
            _hold(store, normalised[cut:], kind)
        for other in elsewhere:
            _hold(store, other, "sub")
    walked, joined = stores
    assert walked.lookup(name, NOW) == _split_join_lookup(joined, name, NOW)
    # Neither walk writes, expired slots included.
    assert walked._slots == joined._slots


# -- the cache file's line order ---------------------------------------------


def _dmy(d):
    return f"{d.day:02d}-{d.month:02d}-{d.year:04d}"


@st.composite
def cache_slots(draw):
    """(domain, valid_from, valid_to, include_sub, revoked) per slot, on
    mixed-case domains that differ once lowered, none expired at NOW."""
    domains = draw(st.lists(
        st.from_regex(r"[a-dA-D]{1,2}(\.[a-dA-D]{1,2})?\.(test|TEST|Test)", fullmatch=True),
        max_size=12, unique_by=str.lower,
    ))
    slots = []
    for domain in domains:
        valid_from = NOW - timedelta(days=draw(st.integers(30, 400)))
        valid_to = NOW + timedelta(days=draw(st.integers(0, 400)))
        slots.append((domain, valid_from, valid_to, draw(st.booleans()), draw(st.booleans())))
    return slots


# A tombstone whose domain sorts between two policy domains.
@example([("a.test", date(2018, 5, 1), VALID_TO, False, False),
          ("B.test", date(2018, 5, 1), VALID_TO, False, True),
          ("c.test", date(2018, 5, 1), VALID_TO, True, False)])
@given(cache_slots())
def test_cache_text_lists_policies_then_tombstones_each_in_domain_order(slots):
    store = PolicyStore()
    policies, tombstones = [], []
    for domain, valid_from, valid_to, sub, revoked in slots:
        name = domain.lower()
        if revoked:
            # A revocation of nothing leaves no tombstone, so store a policy first.
            store.update(domain, record(valid_from - timedelta(days=1), valid_to), NOW)
            store.update(domain, record(valid_from, valid_to, revoke=True), NOW)
            tombstones.append((name, f"TOMBSTONE {name} {_dmy(valid_from)} {_dmy(valid_to)}"))
        else:
            store.update(domain, record(valid_from, valid_to, include_sub_domain=sub), NOW)
            policies.append((name, (
                f"POLICY {name} name=DSTC; validFrom={_dmy(valid_from)}; "
                f"validTo={_dmy(valid_to)}; tlsLevel=strict-config; "
                f"includeSubDomain={int(sub)}; revoke=0; report=admin@tls12.com"
            )))
    text = store.to_text()
    assert text == "".join(line + "\n" for _, line in sorted(policies) + sorted(tombstones))
    reloaded = PolicyStore.from_text(text)
    assert reloaded.to_text() == text
    assert reloaded.entries() == store.entries()
    assert reloaded.tombstones() == store.tombstones()


# -- property and randomised interleaving tests ------------------------------

_days = st.integers(min_value=0, max_value=120)


@st.composite
def deliveries(draw):
    # policies issued on different days, all active at NOW, some revoking
    issued = date(2018, 3, 1) + timedelta(days=draw(_days))
    return record(valid_from=issued, revoke=draw(st.booleans()))


@given(st.lists(deliveries(), min_size=1, max_size=12))
def test_high_water_mark_never_decreases(incoming):
    store = PolicyStore()
    high_water = None
    for rec in incoming:
        store.update("d.test", rec, NOW)
        entry = store.get_exact("d.test", NOW)
        marker = [t for t in store.tombstones() if t.domain == "d.test"]
        current = entry.record.valid_from if entry else (marker[0].valid_from if marker else None)
        if high_water is not None:
            assert current is not None and current >= high_water
        high_water = current if current is not None else high_water


@given(st.lists(st.booleans(), min_size=1, max_size=10))
def test_replay_immunity_any_interleaving(pick_new):
    old = record(date(2018, 4, 1))
    new = record(date(2018, 5, 1))
    store = PolicyStore()
    delivered = [new if choice else old for choice in pick_new] + [new]
    for rec in delivered:
        store.update("d.test", rec, NOW)
    assert store.get_exact("d.test", NOW).record == new


def test_random_interleavings_mass():
    # 10k randomised delivery sequences: monotone freshness, replay immunity,
    # tombstone durability. Model: highest validFrom accepted so far wins.
    rng = random.Random(1805)
    base = date(2018, 3, 1)
    for sequence in range(10_000):
        store = PolicyStore()
        pool_days = rng.sample(range(0, 90), k=rng.randint(2, 5))
        pool = [
            record(valid_from=base + timedelta(days=d), revoke=rng.random() < 0.25)
            for d in pool_days
        ]
        high_water = None
        revoked_at = None
        for _ in range(rng.randint(2, 10)):
            rec = rng.choice(pool)
            action = store.update("d.test", rec, NOW)
            entry = store.get_exact("d.test", NOW)

            if high_water is not None and rec.valid_from <= high_water:
                # nothing older than the high-water mark may change state
                assert action in (StoreAction.REJECTED_STALE, StoreAction.UNCHANGED)
            if entry is not None:
                assert not entry.record.revoke
                if high_water is not None:
                    assert entry.record.valid_from >= high_water
                high_water = entry.record.valid_from
                revoked_at = None
            elif action is StoreAction.REVOKED_DELETED or (
                action is StoreAction.UNCHANGED and rec.revoke
                and (high_water is None or rec.valid_from > high_water)
            ):
                if action is StoreAction.REVOKED_DELETED:
                    revoked_at = rec.valid_from
                    high_water = rec.valid_from
            if revoked_at is not None:
                # tombstone durability: everything at or below it stays out
                stale = record(valid_from=revoked_at)
                assert store.update("d.test", stale, NOW) is StoreAction.REJECTED_STALE
                assert store.get_exact("d.test", NOW) is None

        if sequence % 500 == 0:
            text = store.to_text()
            assert PolicyStore.from_text(text).to_text() == text
