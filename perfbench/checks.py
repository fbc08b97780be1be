"""Output checks applied to every scenario the benchmark runs.

* Exact packet conservation: every generated data packet is delivered,
  dropped with a reason, or still held somewhere at the end of the run.
* Two bounds from the paper rather than from the program: its Section
  II-A class table (250/150/75/50 kbps) and its 512-byte data packets.  A
  hop can carry a packet no faster than the top class, so the mean delay
  is at least the mean hop count times 4096 bits / 250 kbps (16.4 ms),
  and the mean rate of the links crossed lies within the class range.
* A traced run must reproduce the untraced report exactly.

Each check raises :class:`CheckFailure` with what went wrong.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

#: Paper Section II-A: ABICM throughput classes (kbps).
CLASS_RATES_KBPS = (250.0, 150.0, 75.0, 50.0)
#: Paper Section III-A: data packet size.
PACKET_BITS = 512 * 8
#: Airtime of one data packet at the top class rate (ms).
MIN_HOP_DELAY_MS = PACKET_BITS / max(CLASS_RATES_KBPS)
#: Slack for float rounding in the report's derived means.
_REL_TOL = 1e-9


class CheckFailure(AssertionError):
    """A scenario's outputs are inconsistent or physically impossible."""


def digest(report: Any) -> str:
    """Short content hash of a ``MetricsReport`` (identical runs match)."""
    blob = json.dumps(dataclasses.asdict(report), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def packets_in_flight(scenario: Any) -> int:
    """Data packets still held anywhere in ``scenario``.

    Queued on a data link, in flight on a busy link (one packet each,
    awaiting its ACK or retry), or waiting in a protocol's pending buffer
    for a route.
    """
    network = scenario.network
    ids = network.node_ids
    held = 0
    for node in network.nodes():
        link = node.datalink
        held += link.total_queued()
        held += sum(1 for peer in ids if link.is_busy(peer))
    for proto in scenario.protocols:
        held += sum(proto.pending.pending_count(dest) for dest in ids)
    return held


def check_conservation(scenario: Any, report: Any) -> None:
    """generated == delivered + drops + packets still held, exactly."""
    dropped = sum(report.drops.values())
    held = packets_in_flight(scenario)
    if report.generated != report.delivered + dropped + held:
        raise CheckFailure(
            f"packet conservation: generated {report.generated} != delivered "
            f"{report.delivered} + dropped {dropped} {dict(sorted(report.drops.items()))} "
            f"+ held {held}"
        )


def check_delay_bound(report: Any) -> None:
    """Mean delay >= mean hops x one packet's airtime at the top class."""
    if not report.delivered:
        return
    floor_ms = report.avg_hops * MIN_HOP_DELAY_MS
    if report.avg_delay_ms < floor_ms * (1.0 - _REL_TOL):
        raise CheckFailure(
            f"mean delay {report.avg_delay_ms:.3f} ms is below {report.avg_hops:.3f} hops "
            f"x {MIN_HOP_DELAY_MS:.3f} ms = {floor_ms:.3f} ms"
        )


def check_link_rate_bound(report: Any) -> None:
    """Mean link throughput lies within the class table's rate range."""
    if not report.delivered:
        return
    low, high = min(CLASS_RATES_KBPS), max(CLASS_RATES_KBPS)
    rate = report.avg_link_throughput_kbps
    if not (low * (1.0 - _REL_TOL) <= rate <= high * (1.0 + _REL_TOL)):
        raise CheckFailure(
            f"mean link throughput {rate!r} kbps lies outside [{low:g}, {high:g}] kbps"
        )


def check_scenario(scenario: Any, report: Any) -> None:
    """Every per-scenario check: conservation and both paper bounds."""
    check_conservation(scenario, report)
    check_delay_bound(report)
    check_link_rate_bound(report)


def check_same_report(untraced: Any, traced: Any) -> None:
    """The traced run reproduces the untraced report field for field."""
    a, b = dataclasses.asdict(untraced), dataclasses.asdict(traced)
    if a != b:
        fields = sorted(k for k in a if a[k] != b.get(k))
        raise CheckFailure(f"traced report differs from untraced in {fields}")
