"""Command-line interface.

Examples::

    # One run with explicit parameters
    python -m repro run --protocol rica --mean-speed 36 --rate 10 \\
        --duration 30 --trials 2 --seed 1

    # Regenerate a paper figure (scaled down by default)
    python -m repro figure fig2a
    python -m repro figure fig3b --paper-scale

    # A full scenario grid, fanned out over 4 worker processes
    python -m repro campaign --protocols rica aodv --speeds 0 36 72 \\
        --rates 10 20 --duration 30 --trials 2 --jobs 4 --out campaign.json

    # What exists
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import format_table
from repro.experiments.backend import RetryPolicy
from repro.experiments.campaign import CampaignSpec, run_campaign, save_results
from repro.experiments.figures import figure_spec, list_figures, run_figure
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweep import run_trials
from repro.mac.csma import MAC_BACKENDS, MacConfig
from repro.faults import FaultConfig, NodeChurnConfig
from repro.routing.registry import available_protocols

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of RICA (ICDCS 2002): channel-adaptive ad hoc routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print its metrics")
    run_p.add_argument("--protocol", default="rica", choices=available_protocols())
    run_p.add_argument("--mean-speed", type=float, default=36.0, help="mean speed, km/h")
    run_p.add_argument("--rate", type=float, default=10.0, help="packets/s per flow")
    run_p.add_argument("--duration", type=float, default=30.0, help="simulated seconds")
    run_p.add_argument("--trials", type=int, default=1)
    run_p.add_argument("--nodes", type=int, default=50)
    run_p.add_argument("--flows", type=int, default=10)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument(
        "--rreq-aggregation", type=float, default=0.0, metavar="SECONDS",
        help="RREQ-aggregation jitter window in seconds "
        "(0 = the paper's immediate-relay flooding)",
    )
    run_p.add_argument(
        "--mac-backend", default="scalar", choices=list(MAC_BACKENDS),
        help="MAC attempt scheduler (scalar = per-event reference; batched = "
        "BackoffBank + slot-aligned contention rounds + bulk ACK timers)",
    )
    run_p.add_argument(
        "--mac-slot-align", type=float, default=0.0, metavar="SECONDS",
        help="contention-slot width for the batched MAC backend "
        "(0 = the paper's continuous, unslotted timing)",
    )
    run_p.add_argument(
        "--node-churn", type=float, default=0.0, metavar="RATE",
        help="deterministic node churn: per-node crash rate in crashes/s "
        "(0 = no faults; seed-derived, reproducible)",
    )
    run_p.add_argument(
        "--mean-downtime", type=float, default=5.0, metavar="SECONDS",
        help="mean down-time of a crashed node before it recovers "
        "(with --node-churn)",
    )

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("figure_id", choices=list_figures())
    fig_p.add_argument("--paper-scale", action="store_true", help="500 s x 25 trials x 7 speeds")
    fig_p.add_argument("--duration", type=float, default=None)
    fig_p.add_argument("--trials", type=int, default=None)
    fig_p.add_argument("--seed", type=int, default=1)
    fig_p.add_argument("--protocols", nargs="*", default=None, choices=available_protocols())
    fig_p.add_argument("--plot", action="store_true", help="render an ASCII chart too")

    camp_p = sub.add_parser(
        "campaign",
        help="run a (protocol x speed x rate) grid, optionally in parallel",
    )
    camp_p.add_argument("--name", default="campaign")
    camp_p.add_argument(
        "--protocols", nargs="+", default=None, choices=available_protocols(),
        help="protocols to sweep (default: all)",
    )
    camp_p.add_argument(
        "--speeds", nargs="+", type=float, default=[0.0, 36.0, 72.0],
        help="mean speeds, km/h",
    )
    camp_p.add_argument(
        "--rates", nargs="+", type=float, default=[10.0],
        help="per-flow packet rates, packets/s",
    )
    camp_p.add_argument("--duration", type=float, default=30.0, help="simulated seconds")
    camp_p.add_argument("--trials", type=int, default=1)
    camp_p.add_argument("--nodes", type=int, default=50)
    camp_p.add_argument("--flows", type=int, default=10)
    camp_p.add_argument("--seed", type=int, default=1)
    camp_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for grid cells (1 = serial; results are "
        "identical to serial for any N)",
    )
    camp_p.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock bound per grid cell; hung cells are killed and "
        "retried (process-pool backend)",
    )
    camp_p.add_argument(
        "--max-retries", type=int, default=0,
        help="extra attempts per cell after the first (exponential "
        "backoff); with retries the campaign returns partial results "
        "plus a failure report instead of aborting",
    )
    camp_p.add_argument("--out", default=None, help="write results JSON here")

    sub.add_parser("list", help="list protocols and figures")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    faults = None
    if args.node_churn > 0:
        faults = FaultConfig(
            churn=NodeChurnConfig(
                crash_rate_per_s=args.node_churn,
                mean_downtime_s=args.mean_downtime,
            )
        )
    config = ScenarioConfig(
        protocol=args.protocol,
        mean_speed_kmh=args.mean_speed,
        rate_pps=args.rate,
        duration_s=args.duration,
        n_nodes=args.nodes,
        n_flows=args.flows,
        seed=args.seed,
        rreq_aggregation_s=args.rreq_aggregation,
        mac_backend=args.mac_backend,
        mac=MacConfig(slot_align_s=args.mac_slot_align),
        faults=faults,
    )
    agg = run_trials(config, args.trials)
    rows = [
        ["avg end-to-end delay (ms)", agg.avg_delay_ms],
        ["delivery (%)", agg.delivery_pct],
        ["routing overhead (kbps)", agg.overhead_kbps],
        ["avg link throughput (kbps)", agg.avg_link_throughput_kbps],
        ["avg hops", agg.avg_hops],
    ]
    title = (
        f"{args.protocol} @ {args.mean_speed:.0f} km/h, {args.rate:.0f} pkt/s, "
        f"{args.duration:.0f}s x {args.trials} trial(s)"
    )
    if faults is not None:
        title += f", churn {args.node_churn:g}/s"
    print(format_table(["metric", "value"], rows, title))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = figure_spec(args.figure_id)
    print(f"# {spec.figure_id}: {spec.title}")
    print(f"# paper expectation: {spec.paper_expectation}")
    result = run_figure(
        args.figure_id,
        duration_s=args.duration,
        trials=args.trials,
        seed=args.seed,
        paper_scale=args.paper_scale,
        protocols=args.protocols or None,
    )
    print(result.format_table())
    if args.plot:
        print()
        print(_render_plot(result))
    return 0


def _render_plot(result) -> str:
    """ASCII chart matching the figure's kind."""
    from repro.analysis.plot import bar_chart, line_plot

    spec = result.spec
    if spec.kind == "speed_sweep":
        series = {
            proto: [getattr(agg, spec.metric) for agg in result.per_protocol[proto]]
            for proto in spec.protocols
        }
        return line_plot(
            series, result.speeds_kmh, title=spec.title, y_label=spec.metric
        )
    if spec.kind == "bar":
        values = {
            proto: getattr(result.per_protocol[proto][0], spec.metric)
            for proto in spec.protocols
        }
        return bar_chart(values, title=spec.title)
    # timeseries
    longest = max(len(result.series(p)) for p in spec.protocols)
    xs = [i * 4.0 for i in range(longest)]
    series = {
        proto: (result.series(proto) + [0.0] * longest)[:longest]
        for proto in spec.protocols
    }
    return line_plot(series, xs, title=spec.title, y_label="kbps per 4 s bin")


def _cmd_campaign(args: argparse.Namespace) -> int:
    spec = CampaignSpec(
        name=args.name,
        base=ScenarioConfig(
            duration_s=args.duration,
            n_nodes=args.nodes,
            n_flows=args.flows,
            seed=args.seed,
        ),
        protocols=args.protocols or available_protocols(),
        mean_speeds_kmh=args.speeds,
        rates_pps=args.rates,
        trials=args.trials,
    )
    print(
        f"# campaign {spec.name!r}: {spec.cells} cells x {spec.trials} trial(s), "
        f"{args.duration:.0f}s each, jobs={args.jobs}"
    )
    policy = None
    if args.max_retries > 0 or args.cell_timeout is not None:
        policy = RetryPolicy(
            max_retries=args.max_retries, cell_timeout_s=args.cell_timeout
        )
    result = run_campaign(
        spec,
        progress=lambda key: print(f"  done {key}"),
        jobs=args.jobs,
        policy=policy,
    )
    rows = [
        [key, agg.avg_delay_ms, agg.delivery_pct, agg.overhead_kbps]
        for key, agg in result.cells.items()
    ]
    print(format_table(["cell", "delay (ms)", "delivery (%)", "overhead (kbps)"], rows))
    if result.failures:
        fail_rows = [
            [key, info["kind"], info["attempts"], info["error"]]
            for key, info in result.failures.items()
        ]
        print(format_table(["failed cell", "kind", "attempts", "error"], fail_rows))
        print(f"# {len(result.failures)} cell(s) failed after retries; results are partial")
    if args.out:
        save_results(result, args.out)
        print(f"# wrote {args.out}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("protocols:")
    for name in available_protocols():
        print(f"  {name}")
    print("figures:")
    for fid in list_figures():
        spec = figure_spec(fid)
        print(f"  {fid}: {spec.title}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "figure": _cmd_figure,
        "campaign": _cmd_campaign,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
