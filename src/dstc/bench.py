"""Wall and CPU timing of the client-side verification path.

Three measured functions, mirroring what a client adds on top of a plain TLS
connection: SigVerify (record-set signature check), QueryVerify (resolve and
``check_answer``), and Enforce (decision plus configuration materialisation).
A fourth row times one iteration of the whole pipeline.

Every row verifies the same record set under the same anchor again and again,
so after the first iteration each verify is a verified-answer memo hit (see
``dnssec.verify_rrset``): SigVerify times a repeat verify, not an RSA check.
Likewise, after the first iteration each policy parse in the QueryVerify,
Enforce and "All 3" rows is a parse-memo hit (see ``policy.parse_policy``),
each ``resolve`` in the QueryVerify and "All 3" rows returns the answer the
name's slot holds (see ``dnssec.resolve``), and each decision in the Enforce and "All 3"
rows is an intern hit (see ``enforcement.decide``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import date

from .dnssec import TrustAnchorSet, ZoneStore, resolve, verify_rrset
from .enforcement import DEFAULT_CLIENT, apply, check_answer, decide
from .store import PolicyStore


@dataclass(frozen=True)
class BenchRow:
    name: str
    wall_max_ms: float
    wall_min_ms: float
    wall_avg_ms: float
    cpu_max_ms: float
    cpu_min_ms: float
    cpu_avg_ms: float


@dataclass(frozen=True)
class BenchReport:
    iterations: int
    rows: tuple[BenchRow, ...]


def _measure(name: str, fn, iterations: int) -> BenchRow:
    wall: list[float] = []
    cpu: list[float] = []
    for _ in range(iterations):
        w0 = time.perf_counter()
        c0 = time.process_time()
        fn()
        cpu.append((time.process_time() - c0) * 1000.0)
        wall.append((time.perf_counter() - w0) * 1000.0)
    return BenchRow(
        name,
        max(wall),
        min(wall),
        sum(wall) / iterations,
        max(cpu),
        min(cpu),
        sum(cpu) / iterations,
    )


def run_bench(
    zone: ZoneStore,
    anchors: TrustAnchorSet,
    domain: str,
    now: date,
    iterations: int,
) -> BenchReport:
    """Time the verification functions against a fixture zone."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    response = resolve(zone, domain)
    if response.rrset is None:
        raise ValueError(f"fixture zone has no record set for {domain}")
    anchor = anchors.lookup(domain)
    if anchor is None:
        raise ValueError(f"no trust anchor covers {domain}")
    rrset = response.rrset
    store = PolicyStore()

    def sig_verify():
        verify_rrset(anchor, rrset, now)

    def query_verify():
        check_answer(resolve(zone, domain), anchors, domain, now)

    def enforce():
        apply(decide(response, anchors, store, domain, now), DEFAULT_CLIENT)

    def all_three():
        answer = resolve(zone, domain)
        apply(decide(answer, anchors, store, domain, now), DEFAULT_CLIENT)

    rows = (
        _measure("SigVerify", sig_verify, iterations),
        _measure("QueryVerify", query_verify, iterations),
        _measure("Enforce", enforce, iterations),
        _measure("All 3 functions", all_three, iterations),
    )
    return BenchReport(iterations, rows)


def render_bench_table(report: BenchReport) -> str:
    header = (
        f"{'function':<17} {'wall max':>9} {'wall min':>9} {'wall avg':>9} "
        f"{'cpu max':>9} {'cpu min':>9} {'cpu avg':>9}   (ms, {report.iterations} iterations)"
    )
    lines = [header]
    for r in report.rows:
        lines.append(
            f"{r.name:<17} {r.wall_max_ms:>9.3f} {r.wall_min_ms:>9.3f} "
            f"{r.wall_avg_ms:>9.3f} {r.cpu_max_ms:>9.3f} {r.cpu_min_ms:>9.3f} "
            f"{r.cpu_avg_ms:>9.3f}"
        )
    return "\n".join(lines)
