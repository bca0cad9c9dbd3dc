"""Command-line surface.

Exit codes: 0 success, 1 policy or verification refusal (attack-signalling
decision, failed handshake, failed scenario expectation), 2 usage or file
errors. Every command takes its inputs from flags and files, reads the clock
only through --now, and writes results to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from datetime import date

from . import bench as bench_mod
from . import scenarios as scenarios_mod
from . import survey as survey_mod
from .dnssec import (
    TrustAnchor,
    TrustAnchorSet,
    ZoneKeyPair,
    ZoneStore,
    normalize_domain,
    resolve,
    sign_rrset,
)
from .enforcement import ATTACK_REASONS, DEFAULT_CLIENT, apply, decide
from .handshake import AttackerStrategy, HandshakeResult, run_handshake
from .policy import (
    MalformedPolicy,
    PolicyRecord,
    format_policy_date,
    parse_policy,
    parse_policy_date,
    parse_policy_flag,
    serialize_policy,
)
from .store import PolicyStore
from .textfile import read_file

USAGE_ERROR = 2
REFUSAL = 1


def _policy_value(read, directive: str):
    """An argparse type that reads its text as parse_policy reads *directive*."""
    def read_value(text: str):
        try:
            return read(text, directive)
        except MalformedPolicy as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return read_value


_date_flag = _policy_value(parse_policy_date, "date")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstc",
        description="Signed DNS policy records for strict TLS configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="render a canonical policy TXT value")
    p.add_argument("--valid-from", required=True, type=_date_flag, metavar="DD-MM-YYYY")
    p.add_argument("--valid-to", required=True, type=_date_flag, metavar="DD-MM-YYYY")
    p.add_argument("--report", required=True, help="owner contact, local@domain")
    p.add_argument("--include-sub-domain", type=_policy_value(parse_policy_flag, "includeSubDomain"),
                   default=False, metavar="0|1")
    p.add_argument("--revoke", type=_policy_value(parse_policy_flag, "revoke"),
                   default=False, metavar="0|1")

    p = sub.add_parser("sign", help="sign a TXT record set into a zone file")
    p.add_argument("--zone", required=True, help="zone file to create or update")
    p.add_argument("--domain", required=True)
    p.add_argument("--policy-txt", required=True, help="TXT value, e.g. gen output")
    p.add_argument("--extra-txt", action="append", default=[], help="additional TXT value")
    p.add_argument("--key", required=True, help="PEM private key path")
    p.add_argument("--generate-key", action="store_true", help="create the key if missing")
    p.add_argument("--key-id", default="zsk-1")
    p.add_argument("--inception", required=True, type=_date_flag, metavar="DD-MM-YYYY")
    p.add_argument("--expiration", required=True, type=_date_flag, metavar="DD-MM-YYYY")
    p.add_argument("--anchors-out", help="also record the key as a trust anchor here")

    p = sub.add_parser("resolve", help="look up a name's TXT record set")
    p.add_argument("--zone", required=True)
    p.add_argument("--name", required=True)

    p = sub.add_parser("verify", help="decide and show the effective TLS config")
    p.add_argument("--zone", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--now", type=_date_flag, default=None, metavar="DD-MM-YYYY")
    p.add_argument("--store", help="policy cache file, loaded and written back")

    p = sub.add_parser("connect-sim", help="verify, then simulate the handshake")
    p.add_argument("--zone", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--profiles", required=True, help="scenario file with PROFILE lines")
    p.add_argument("--server", required=True, help="profile name to connect to")
    p.add_argument("--attack", default="none", help="none|drop:N|fragment|modver:V")
    p.add_argument("--now", type=_date_flag, default=None, metavar="DD-MM-YYYY")
    p.add_argument("--store", help="policy cache file, loaded and written back")

    p = sub.add_parser("attack-sim", help="run a built-in or file-based attack suite")
    p.add_argument("suite", nargs="?", choices=sorted(scenarios_mod.BUILTIN_SUITES))
    p.add_argument("--scenario-file", help="run scenarios from a file instead")

    p = sub.add_parser("survey", help="summarise a corpus of server profiles")
    p.add_argument("--corpus", required=True)
    p.add_argument("--kv", action="store_true", help="key=value output")

    p = sub.add_parser("bench", help="time the verification pipeline")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--zone")
    p.add_argument("--anchors")
    p.add_argument("--domain", default="tls12.test")
    p.add_argument("--now", type=_date_flag, default=None, metavar="DD-MM-YYYY")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen": cmd_gen,
        "sign": cmd_sign,
        "resolve": cmd_resolve,
        "verify": cmd_verify,
        "connect-sim": cmd_connect_sim,
        "attack-sim": cmd_attack_sim,
        "survey": cmd_survey,
        "bench": cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"dstc {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _load_or_new(cls, path: str | None):
    """The file at ``path`` loaded as ``cls``, or an empty ``cls()`` when
    there is no such file."""
    return cls.load(path) if path and os.path.exists(path) else cls()


def _now(args) -> date:
    return args.now if args.now is not None else date.today()


def cmd_gen(args) -> int:
    record = PolicyRecord(
        valid_from=args.valid_from,
        valid_to=args.valid_to,
        include_sub_domain=args.include_sub_domain,
        revoke=args.revoke,
        report=args.report,
    )
    print(serialize_policy(record))
    return 0


def cmd_sign(args) -> int:
    # Every input is read and checked before anything is written, so a
    # refused sign leaves no new key behind.
    parse_policy(args.policy_txt)  # refuse to sign a malformed policy
    zone = _load_or_new(ZoneStore, args.zone)
    anchors = _load_or_new(TrustAnchorSet, args.anchors_out)
    generate = not os.path.exists(args.key)
    if generate and not args.generate_key:
        print(f"dstc sign: key file {args.key} not found "
              "(pass --generate-key to create it)", file=sys.stderr)
        return USAGE_ERROR
    keys = (ZoneKeyPair.generate(args.key_id) if generate
            else ZoneKeyPair.load_private_pem(args.key, args.key_id))
    rrset = sign_rrset(
        keys,
        args.domain,
        [args.policy_txt, *args.extra_txt],
        args.inception,
        args.expiration,
    )
    zone.publish(rrset)
    zone.to_text()  # refuse a value the zone file cannot hold
    if generate:
        keys.save_private_pem(args.key)
        print(f"generated key {args.key_id} at {args.key}", file=sys.stderr)
    zone.save(args.zone)
    print(f"signed {len(rrset.values)} TXT value(s) for {rrset.owner_name} "
          f"into {args.zone}")

    if args.anchors_out:
        anchors.add(TrustAnchor(rrset.owner_name, keys.key_id, keys.public_der()))
        anchors.save(args.anchors_out)
        print(f"trust anchor for {rrset.owner_name} recorded in {args.anchors_out}")
    return 0


def cmd_resolve(args) -> int:
    response = resolve(ZoneStore.load(args.zone), args.name)
    print(f"{normalize_domain(args.name)}: {response.disposition.value}")
    if response.rrset is not None:
        for value in response.rrset.values:
            print(f'  TXT "{value}"')
        r = response.rrset
        if r.signature:
            print(f"  SIG key={r.key_id} inception={format_policy_date(r.inception)} "
                  f"expiration={format_policy_date(r.expiration)}")
        else:
            print("  SIG (none)")
    return 0


@contextmanager
def _decided(args):
    """Decide for ``args.domain`` on the zone, the anchors and the ``--store``
    cache, print the decision and its config, and yield both. Once the block
    completes, the cache is written back whole, expired slots included; a
    block that raises, or a refused query name, writes nothing."""
    zone = ZoneStore.load(args.zone)
    anchors = TrustAnchorSet.load(args.anchors)
    store = _load_or_new(PolicyStore, args.store)
    now = _now(args)
    decision = decide(resolve(zone, args.domain), anchors, store, args.domain, now)
    config = apply(decision, DEFAULT_CLIENT)
    report = decision.report_address or "-"
    print(f"decision: mode={decision.mode.value} reason={decision.reason.value} "
          f"report={report}")
    print(f"config: versions={','.join(str(v) for v in config.versions)} "
          f"fallback={'on' if config.fallback_enabled else 'off'}")
    print(f"config: suites={','.join(config.ciphersuites)}")
    if decision.reason in ATTACK_REASONS:
        target = decision.report_address
        if target:
            print(f"report: attack indicators for {args.domain} should be reported to {target}")
    yield decision, config
    if args.store:
        store.save(args.store)


def cmd_verify(args) -> int:
    with _decided(args) as (decision, _):
        return REFUSAL if decision.reason in ATTACK_REASONS else 0


def cmd_connect_sim(args) -> int:
    profiles, _ = read_file(
        args.profiles, scenarios_mod.parse_scenario_file, scenarios_mod.ScenarioFileError
    )
    if args.server not in profiles:
        raise scenarios_mod.ScenarioFileError(
            f"profile {args.server!r} not defined in {args.profiles}"
        )
    attack = AttackerStrategy.parse(args.attack)
    with _decided(args) as (_, config):
        outcome = run_handshake(config, profiles[args.server], attack)
        print(f"attack: {attack.describe()}")
        print("transcript:")
        for event in outcome.transcript:
            print(f"  {event}")
        if outcome.result is HandshakeResult.ESTABLISHED:
            print(f"outcome: {outcome.result.value} version={outcome.negotiated_version} "
                  f"suite={outcome.negotiated_suite}")
        else:
            print(f"outcome: {outcome.result.value}")
        return 0 if outcome.result is HandshakeResult.ESTABLISHED else REFUSAL


def cmd_attack_sim(args) -> int:
    if bool(args.suite) == bool(args.scenario_file):
        print("dstc attack-sim: pass exactly one of <suite> or --scenario-file",
              file=sys.stderr)
        return USAGE_ERROR
    if args.scenario_file:
        profiles, scenario_list = read_file(
            args.scenario_file, scenarios_mod.parse_scenario_file, scenarios_mod.ScenarioFileError
        )
        report = scenarios_mod.run_scenario_suite(
            scenario_list, profiles, suite_name=os.path.basename(args.scenario_file)
        )
    else:
        report = scenarios_mod.run_builtin_suite(args.suite)
    print(report.render())
    return 0 if report.all_passed else REFUSAL


def cmd_survey(args) -> int:
    profiles = read_file(args.corpus, survey_mod.parse_corpus, survey_mod.CorpusFormatError)
    report = survey_mod.survey(profiles)
    print(survey_mod.render_report_kv(report) if args.kv
          else survey_mod.render_report_text(report))
    return 0


def cmd_bench(args) -> int:
    if bool(args.zone) != bool(args.anchors):
        print("dstc bench: --zone and --anchors go together", file=sys.stderr)
        return USAGE_ERROR
    if args.now is not None and not args.zone:
        print("dstc bench: --now goes with --zone", file=sys.stderr)
        return USAGE_ERROR
    if args.zone:
        zone = ZoneStore.load(args.zone)
        anchors = TrustAnchorSet.load(args.anchors)
        now = _now(args)
    else:
        fixture = scenarios_mod.build_fixture(
            {args.domain: scenarios_mod.fixture_policy(report=f"admin@{args.domain}")}
        )
        zone, anchors, now = fixture.zone, fixture.anchors, fixture.now
    report = bench_mod.run_bench(zone, anchors, args.domain, now, args.iterations)
    print(bench_mod.render_bench_table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
