"""Command-line front end: run one scenario, compare schemes, replay traces.

Every invocation that produces a run directory leaves behind the
resolved effective configuration (after flag overrides), a metrics
time-series CSV, a decision log CSV, and a summary in both plain text
and JSON. Exit codes are a stable contract: 0 success, 1 for anything
wrong with the inputs (flags, config files, traces), 2 for unexpected
runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from .config import ScenarioConfig, dump_config, load_config
from .errors import OffloadError
from .simharness import (
    ComparisonResult,
    MetricsReport,
    compare_schemes,
    default_schemes,
    run_scenario,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 1)."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise OffloadError(f"usage: {message}")


def _fmt(value: float) -> str:
    return format(value, ".6f")


def render_metrics_csv(report: MetricsReport) -> str:
    """The per-tick time series, one row per metrics sample."""
    edges = sorted(report.per_edge)
    header = ["t", "host"]
    for eid in edges:
        header += [f"cpu_{eid}", f"mem_pct_{eid}", f"queue_{eid}", f"mbps_{eid}"]
    header += ["generated", "processed", "dropped", "merged"]
    ts = report.timeseries
    cells = [map(_fmt, ts.t), ts.host]
    for eid in edges:
        cells += [map(_fmt, ts.edge_column("cpu", eid)), map(_fmt, ts.edge_column("mem_pct", eid)),
                  map(str, ts.edge_column("queue", eid)),
                  map(_fmt, ts.edge_column("throughput_mbps", eid))]
    cells += [map(str, col) for col in (ts.generated, ts.processed, ts.dropped, ts.merged)]
    return "\n".join([",".join(header), *map(",".join, zip(*cells)), ""])


def render_decisions_csv(report: MetricsReport) -> str:
    """One row per consensus round: iteration,winner,votes,switched."""
    lines = ["iteration,winner,votes,switched"]
    for d in report.decisions:
        votes = ";".join(f"{e}={n}" for e, n in sorted(d.votes.items()))
        lines.append(
            f"{d.iteration},{d.winner or ''},{votes},{str(d.switched).lower()}"
        )
    lines.append("")
    return "\n".join(lines)


def summary_dict(report: MetricsReport) -> dict:
    return {
        "scheme": report.scheme,
        "seed": report.seed,
        "duration": report.duration,
        "elapsed": report.elapsed,
        "completed": report.completed,
        "task_latency": report.task_latency,
        "processing_frequency": report.processing_frequency,
        "merged_outputs": report.merged_outputs,
        "switch_count": report.switch_count,
        "generated": report.generated,
        "processed": report.processed,
        "queued": report.queued,
        "dropped": report.dropped,
        "cpu_balance_variance": report.cpu_balance_variance(),
        "per_edge": {
            eid: {
                "mean_cpu": m.mean_cpu,
                "peak_cpu": m.peak_cpu,
                "mean_mem_pct": m.mean_mem_pct,
                "peak_mem_pct": m.peak_mem_pct,
                "mean_throughput_mbps": m.mean_throughput_mbps,
            }
            for eid, m in sorted(report.per_edge.items())
        },
    }


def render_summary_text(report: MetricsReport) -> str:
    lines = [
        f"scheme:               {report.scheme}",
        f"seed:                 {report.seed}",
        f"completed:            {report.completed}",
        f"task latency (s):     {report.task_latency:.3f}",
        f"processing freq (Hz): {report.processing_frequency:.4f}",
        f"merged outputs:       {report.merged_outputs}",
        f"switches:             {report.switch_count}",
        f"messages:             generated={report.generated} processed={report.processed}"
        f" queued={report.queued} dropped={report.dropped}",
        f"cpu balance variance: {report.cpu_balance_variance():.3f}",
        "per-edge:",
    ]
    for eid, m in sorted(report.per_edge.items()):
        lines.append(
            f"  {eid}: cpu mean/peak {m.mean_cpu:.1f}/{m.peak_cpu:.1f} %"
            f"  mem mean/peak {m.mean_mem_pct:.1f}/{m.peak_mem_pct:.1f} %"
            f"  throughput {m.mean_throughput_mbps:.3f} Mbps"
        )
    return "\n".join(lines) + "\n"


def write_run_outputs(report: MetricsReport, cfg: ScenarioConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, out_dir / "config.yaml")
    (out_dir / "metrics.csv").write_text(render_metrics_csv(report), encoding="utf-8")
    (out_dir / "decisions.csv").write_text(render_decisions_csv(report), encoding="utf-8")
    (out_dir / "summary.txt").write_text(render_summary_text(report), encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps(summary_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def render_comparison_table(result: ComparisonResult) -> str:
    """Seed-averaged metrics per scheme, deltas relative to the first row."""
    base = result.summary[result.schemes[0]]
    header = (
        f"{'scheme':<14} {'done':>5} {'latency (s)':>16} {'dLat%':>7} "
        f"{'freq (Hz)':>15} {'dFreq%':>7} {'switches':>8} {'cpuVar':>8}"
    )
    lines = [header, "-" * len(header)]
    for scheme in result.schemes:
        s = result.summary[scheme]
        dlat = 100.0 * (s.latency_mean - base.latency_mean) / base.latency_mean
        dfreq = (
            100.0 * (s.frequency_mean - base.frequency_mean) / base.frequency_mean
            if base.frequency_mean > 0.0
            else 0.0
        )
        lines.append(
            f"{scheme:<14} {s.completed_runs:>2}/{s.seeds:<2} "
            f"{s.latency_mean:>8.1f} ±{s.latency_std:>6.1f} {dlat:>+7.1f} "
            f"{s.frequency_mean:>7.3f} ±{s.frequency_std:>6.3f} {dfreq:>+7.1f} "
            f"{s.switches_mean:>8.1f} {s.cpu_variance_mean:>8.1f}"
        )
    return "\n".join(lines) + "\n"


def render_comparison_csv(result: ComparisonResult) -> str:
    lines = [
        "scheme,seeds,completed_runs,latency_mean,latency_std,"
        "frequency_mean,frequency_std,switches_mean,cpu_variance_mean,"
        "throughput_mean"
    ]
    for scheme in result.schemes:
        s = result.summary[scheme]
        lines.append(
            f"{scheme},{s.seeds},{s.completed_runs},{_fmt(s.latency_mean)},"
            f"{_fmt(s.latency_std)},{_fmt(s.frequency_mean)},{_fmt(s.frequency_std)},"
            f"{_fmt(s.switches_mean)},{_fmt(s.cpu_variance_mean)},"
            f"{_fmt(s.throughput_mean)}"
        )
    return "\n".join(lines) + "\n"


def default_output_name(cfg: ScenarioConfig, suffix: str = "") -> str:
    scheme = cfg.scheme.replace(":", "-")
    tail = f"-{suffix}" if suffix else ""
    return f"runs/{cfg.name}-{scheme}-s{cfg.seed}{tail}"


def _load_overridden(args: argparse.Namespace) -> ScenarioConfig:
    """The config file with the ``--seed`` and ``--scheme`` flags applied."""
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
        overrides["weights"] = None  # scheme override re-selects its preset
    return replace(cfg, **overrides) if overrides else cfg


def cmd_run(args: argparse.Namespace) -> int:
    """``run``, or ``replay`` driven by the two trace files."""
    cfg = _load_overridden(args)
    replay = args.command == "replay"
    traces = (args.device_trace, args.net_trace) if replay else (None, None)
    report = run_scenario(cfg, *traces)
    out_dir = Path(args.out or default_output_name(cfg, suffix="replay" if replay else ""))
    write_run_outputs(report, cfg, out_dir)
    print(f"{args.command} written to {out_dir}")
    if args.verbose:
        print(render_summary_text(report), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    seeds_raw = _split_csv(args.seeds)
    seeds = None
    if seeds_raw is not None:
        try:
            seeds = [int(s) for s in seeds_raw]
        except ValueError:
            raise OffloadError(f"--seeds must be integers, got {args.seeds!r}")
    schemes = _split_csv(args.schemes)
    cfg = load_config(args.config)
    chosen = schemes if schemes is not None else default_schemes(cfg)
    result = compare_schemes(cfg, chosen, seeds=seeds)
    table = render_comparison_table(result)
    print(table, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        dump_config(cfg, out_dir / "config.yaml")
        (out_dir / "comparison.csv").write_text(
            render_comparison_csv(result), encoding="utf-8"
        )
        (out_dir / "comparison.txt").write_text(table, encoding="utf-8")
        print(f"comparison written to {out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="offloadsim",
        description="Simulate consensus-driven task offloading across edge resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags that ``run`` and ``replay`` share.
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True, help="scenario YAML file")
    scenario.add_argument("--seed", type=int, default=None, help="override the config seed")
    scenario.add_argument("--scheme", default=None, help="override the config scheme")
    scenario.add_argument("--out", default=None, help="output directory")
    scenario.add_argument("--verbose", action="store_true", help="print the summary too")

    sub.add_parser("run", parents=[scenario], help="run one scenario and write its reports")

    cmp_p = sub.add_parser("compare", help="run several schemes over shared seeds")
    cmp_p.add_argument("--config", required=True, help="scenario YAML file")
    cmp_p.add_argument(
        "--schemes",
        default=None,
        help="comma-separated scheme list (default: every fixed edge plus "
        "dynamic cpu/mem/both)",
    )
    cmp_p.add_argument(
        "--seeds", default=None, help="comma-separated seed list (default: 5 from config)"
    )
    cmp_p.add_argument("--out", default=None, help="directory for the comparison files")

    rep_p = sub.add_parser("replay", parents=[scenario],
                           help="drive the schedulers from recorded traces")
    rep_p.add_argument("--device-trace", required=True, help="device readings CSV")
    rep_p.add_argument("--net-trace", required=True, help="RSSI readings CSV")

    return parser


def _split_csv(text: Optional[str]) -> Optional[list[str]]:
    if text is None:
        return None
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise OffloadError("expected a non-empty comma-separated list")
    return items


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("run", "replay"):
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        raise OffloadError(f"unknown command {args.command!r}")
    except OffloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the exit-code contract needs a catch-all
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
