"""The functions a contact runs read no enum member through its class.

On Python 3.10 and 3.11 ``EnumMeta.__getattr__`` makes each ``Enum.MEMBER``
read cost 140-190 ns against 37 ns for a module global, and a warm contact
made about 24 of them. The contact path reads module aliases instead, and
renders TLS versions through ``VERSION_LABELS`` rather than ``format()``.
"""

import dis
import enum
import itertools
import types
from dataclasses import replace

import pytest

from dstc import dnssec, enforcement, handshake, policy, store
from dstc.enforcement import TlsVersion
from test_handshake import DEFAULT_CFG, PROFILE_CATALOGUE, STRATEGY_CATALOGUE, STRICT_CFG

CONTACT_FUNCTIONS = [
    dnssec.resolve,
    dnssec.ZoneStore._answer,
    dnssec.DnsResponse.__post_init__,
    dnssec.verify_rrset,
    # A first sight of a record set builds its signing input.
    dnssec.canonical_form,
    dnssec.SignedRRset.canonical_bytes,
    # A first sight of a policy text parses it; a memo hit runs no code of ours.
    policy.parse_policy.__wrapped__,
    policy.parse_policy_date.__wrapped__,
    policy.policy_status,
    store.PolicyStore._slot,
    store.PolicyStore._exact,
    store.PolicyStore.update,
    store.PolicyStore.observe_absence,
    store.PolicyStore.lookup,
    store.PolicyStore.get_exact,
    enforcement.check_answer,
    enforcement.decide,
    enforcement._decision,
    enforcement.PolicyDecision.__post_init__,
    enforcement.apply,
    handshake.run_handshake,
    handshake._negotiate,
    handshake._line,
    handshake.HandshakeOutcome.__post_init__,
]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _member_reads(fn):
    """Every ``Enum.MEMBER`` read in fn and its nested functions: a
    LOAD_GLOBAL of an Enum subclass, or of a module followed by the LOAD_ATTRs
    that reach one, then a LOAD_ATTR of a member."""
    reads = []
    for code in _code_objects(fn.__code__):
        instructions = list(dis.get_instructions(code))
        for i, load in enumerate(instructions):
            if load.opname != "LOAD_GLOBAL":
                continue
            owner = fn.__globals__.get(load.argval)
            path = [load.argval]
            for attr in itertools.takewhile(lambda ins: ins.opname == "LOAD_ATTR",
                                            instructions[i + 1:]):
                if (isinstance(owner, type) and issubclass(owner, enum.Enum)
                        and attr.argval in owner.__members__):
                    reads.append(".".join(path + [attr.argval]))
                if not isinstance(owner, types.ModuleType):
                    break
                owner = getattr(owner, attr.argval, None)
                path.append(attr.argval)
    return reads


def test_the_static_check_sees_a_member_read():
    def reads_a_member():
        return TlsVersion.TLS10

    def reads_a_member_through_its_module():
        return policy.PolicyStatus.ACTIVE

    assert _member_reads(reads_a_member) == ["TlsVersion.TLS10"]
    assert _member_reads(reads_a_member_through_its_module) == ["policy.PolicyStatus.ACTIVE"]


@pytest.mark.parametrize("fn", CONTACT_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_contact_function_reads_no_member_through_its_enum(fn):
    assert _member_reads(fn) == []


def _raise(*args):
    raise AssertionError("a TLS version was rendered through format() or str()")


def test_handshake_transcripts_render_versions_from_the_label_table(monkeypatch):
    cases = list(itertools.product(
        (STRICT_CFG, DEFAULT_CFG), PROFILE_CATALOGUE, STRATEGY_CATALOGUE
    ))
    expected = [handshake.run_handshake(*case) for case in cases]
    monkeypatch.setattr(TlsVersion, "__format__", _raise)
    monkeypatch.setattr(TlsVersion, "__str__", _raise)
    # Every outcome is kept by now; render each transcript again under the
    # patch, on fresh profiles whose empty tables make each call negotiate.
    handshake._outcome.cache_clear()
    with pytest.raises(AssertionError):
        f"{TlsVersion.TLS12}"
    again = [handshake.run_handshake(cfg, replace(profile), strategy)
             for cfg, profile, strategy in cases]
    assert again == expected
