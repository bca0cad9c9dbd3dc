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

import pytest

from dstc import dnssec, enforcement, handshake, policy, store
from dstc.enforcement import TlsVersion
from test_handshake import DEFAULT_CFG, PROFILE_CATALOGUE, STRATEGY_CATALOGUE, STRICT_CFG

CONTACT_FUNCTIONS = [
    dnssec.resolve,
    dnssec.DnsResponse.__post_init__,
    dnssec.verify_rrset,
    policy.policy_status,
    store.PolicyStore.update,
    store.PolicyStore.observe_absence,
    enforcement.check_answer,
    enforcement.decide,
    enforcement._decision,
    enforcement.PolicyDecision.__post_init__,
    enforcement.apply,
    handshake.run_handshake,
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
    LOAD_GLOBAL of an Enum subclass followed by a LOAD_ATTR of a member."""
    reads = []
    for code in _code_objects(fn.__code__):
        instructions = list(dis.get_instructions(code))
        for load, attr in zip(instructions, instructions[1:]):
            if load.opname != "LOAD_GLOBAL" or attr.opname != "LOAD_ATTR":
                continue
            owner = fn.__globals__.get(load.argval)
            if (isinstance(owner, type) and issubclass(owner, enum.Enum)
                    and attr.argval in owner.__members__):
                reads.append(f"{load.argval}.{attr.argval}")
    return reads


def test_the_static_check_sees_a_member_read():
    def reads_a_member():
        return TlsVersion.TLS10

    assert _member_reads(reads_a_member) == ["TlsVersion.TLS10"]


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
    # Every outcome is kept by now; render each transcript again under the patch.
    handshake._outcome.cache_clear()
    with pytest.raises(AssertionError):
        f"{TlsVersion.TLS12}"
    assert [handshake.run_handshake(*case) for case in cases] == expected
