"""Command-line driver for the experiment harnesses.

Regenerate any paper figure from a shell::

    python -m repro.experiments fig2 --sizes 200 600 1200
    python -m repro.experiments fig4 --procs 1 2 3 4
    python -m repro.experiments fig5 --repeats 3 --jitter 0.1
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
from typing import Optional

from .common import format_table
from .plotting import ascii_chart, chart_rows
from .fig2_solvers import PAPER_SIZES, run_fig2
from .fig4_dna import DEFAULT_NSEQS, MATCH_ROUNDS, PAPER_PROCS as FIG4_PROCS, run_fig4
from .fig5_pipeline import (
    PAPER_GRADIENT_EVERY,
    PAPER_PROCS as FIG5_PROCS,
    PAPER_STEPS,
    run_fig5,
)
from .saturation import (
    DEFAULT_CLIENTS as SATURATION_CLIENTS,
    DEFAULT_REQUESTS as SATURATION_REQUESTS,
)
from ..services.admission import SCHEDULING_POLICIES


def _session(args):
    """A TraceSession when any of ``--trace`` / ``--trace-tree`` /
    ``--metrics`` was given, else None.  Distributed tracing is always
    on for an observed session: it is what stitches cross-world spans
    (and costs nothing measurable next to the observer itself)."""
    trace = getattr(args, "trace", None)
    trace_tree = getattr(args, "trace_tree", False)
    metrics = getattr(args, "metrics", None)
    if not (trace or trace_tree or metrics):
        return None
    from ..tools.observe import TraceSession

    # Fail fast on an unwritable path rather than after the whole sweep.
    for path, flag in ((trace, "--trace"), (metrics, "--metrics")):
        if path is None:
            continue
        try:
            with open(path, "w"):
                pass
        except OSError as exc:
            raise SystemExit(f"{flag}: cannot write {path!r}: {exc}")

    return TraceSession(metrics=bool(metrics))


def _finish_trace(args, session, out: str) -> str:
    if session is None:
        return out
    out += "\n\n" + session.report()
    if getattr(args, "trace", None):
        session.write(args.trace)
        out += f"\n\nchrome trace written to {args.trace}"
    if getattr(args, "trace_tree", False):
        out += "\n\nstitched traces:\n" + session.trace_trees()
    if getattr(args, "metrics", None):
        session.write_metrics(args.metrics)
        out += f"\n\nmetrics written to {args.metrics}"
    return out


def _fig2(args) -> str:
    session = _session(args)
    rows = run_fig2(sizes=tuple(args.sizes),
                    client_np=args.client_np, solver_np=args.solver_np,
                    session=session)
    out = format_table(
        rows, "Figure 2: solver metaapplication, execution time (virtual s)")
    if args.plot:
        out += "\n\n" + chart_rows(
            rows, "n",
            ["t_direct", "t_iterative", "t_distributed", "t_same_server"],
            title="Figure 2 (virtual s vs problem size)")
    return _finish_trace(args, session, out)


def _fig4(args) -> str:
    session = _session(args)
    rows = run_fig4(procs=tuple(args.procs), n_seqs=args.nseqs,
                    rounds=args.rounds, session=session)
    out = format_table(
        rows, "Figure 4: centralized vs distributed single objects "
              "(virtual s, client perspective)")
    if args.plot:
        out += "\n\n" + chart_rows(
            rows, "procs", ["t_centralized", "t_distributed"],
            title="Figure 4 left (virtual s vs server processors)")
        out += "\n\n" + chart_rows(
            rows, "procs", ["difference"],
            title="Figure 4 right (difference, virtual s)")
    return _finish_trace(args, session, out)


def _fig5(args) -> str:
    session = _session(args)
    rows = run_fig5(procs=tuple(args.procs), steps=args.steps,
                    gradient_every=args.gradient_every, n=args.n,
                    repeats=args.repeats, jitter=args.jitter,
                    session=session)
    out = format_table(
        rows, "Figure 5: pipelined metaapplication vs components (virtual s)")
    if args.plot:
        out += "\n\n" + chart_rows(
            rows, "procs", ["t_overall", "t_diffusion", "t_gradient"],
            title="Figure 5 (virtual s vs processors)")
    return _finish_trace(args, session, out)


def _saturation(args) -> str:
    from .saturation import rows_to_json, run_saturation

    session = _session(args)
    results = run_saturation(clients=tuple(args.clients),
                             requests=args.requests,
                             capacity=args.capacity,
                             policy=args.policy,
                             session=session)
    titles = {
        "admission_off": "Saturation: admission off (unbounded queueing)",
        "admission_on": (f"Saturation: admission on (capacity "
                         f"{args.capacity}, {args.policy})"),
        "admission_on_throttled":
            "Saturation: admission on + client throttle (latency "
            "includes deliberate client pacing)",
    }
    out = "\n\n".join(format_table(rows, titles[series])
                      for series, rows in results.items())
    if args.plot:
        clients = [r.clients for r in results["admission_off"]]
        out += "\n\n" + ascii_chart(
            clients,
            {series: [r.p99_ms for r in rows]
             for series, rows in results.items()},
            title="Accepted-request p99 (ms) vs closed-loop clients",
            x_label="clients")
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(rows_to_json(results))
        out += f"\n\nJSON written to {args.json_out}"
    return _finish_trace(args, session, out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the PARDIS paper's evaluation figures.",
    )
    ap.add_argument("--plot", action="store_true",
                    help="render ASCII charts of the series")
    ap.add_argument("--trace", metavar="OUT.json", default=None,
                    help="record every request's lifecycle and write a "
                         "Chrome-trace (chrome://tracing / Perfetto) JSON "
                         "file with cross-world flow arrows, plus a "
                         "latency/bytes report")
    ap.add_argument("--trace-tree", action="store_true", dest="trace_tree",
                    help="print each distributed trace as an indented "
                         "causal tree with per-hop latency attribution")
    ap.add_argument("--metrics", metavar="OUT", default=None,
                    help="export the unified metrics registry after the "
                         "run: *.prom gets Prometheus text exposition, "
                         "anything else a JSON snapshot keyed by run")
    sub = ap.add_subparsers(dest="figure", required=True)

    p2 = sub.add_parser("fig2", help="concurrent solvers (§4.1)")
    p2.add_argument("--sizes", type=int, nargs="+", default=list(PAPER_SIZES))
    p2.add_argument("--client-np", type=int, default=2)
    p2.add_argument("--solver-np", type=int, default=2)
    p2.set_defaults(run=_fig2)

    p4 = sub.add_parser("fig4", help="DNA database single objects (§4.2)")
    p4.add_argument("--procs", type=int, nargs="+", default=list(FIG4_PROCS))
    p4.add_argument("--nseqs", type=int, default=DEFAULT_NSEQS)
    p4.add_argument("--rounds", type=int, default=MATCH_ROUNDS)
    p4.set_defaults(run=_fig4)

    p5 = sub.add_parser("fig5", help="POOMA/HPC++ pipeline (§4.3)")
    p5.add_argument("--procs", type=int, nargs="+", default=list(FIG5_PROCS))
    p5.add_argument("--steps", type=int, default=PAPER_STEPS)
    p5.add_argument("--gradient-every", type=int,
                    default=PAPER_GRADIENT_EVERY)
    p5.add_argument("--n", type=int, default=128)
    p5.add_argument("--repeats", type=int, default=1)
    p5.add_argument("--jitter", type=float, default=0.0)
    p5.set_defaults(run=_fig5)

    ps = sub.add_parser(
        "saturation",
        help="offered-load sweep: admission control evidence "
             "(repro.services; not a paper figure)")
    ps.add_argument("--clients", type=int, nargs="+",
                    default=list(SATURATION_CLIENTS))
    ps.add_argument("--requests", type=int, default=SATURATION_REQUESTS)
    ps.add_argument("--capacity", type=int, default=4)
    ps.add_argument("--policy", choices=list(SCHEDULING_POLICIES),
                    default="fifo")
    ps.add_argument("--json", dest="json_out", metavar="OUT.json",
                    default=None,
                    help="write all series as JSON (the CI artifact)")
    ps.set_defaults(run=_saturation)

    pall = sub.add_parser("all", help="every figure at paper scale")
    pall.set_defaults(run=None)

    pv = sub.add_parser("validate",
                        help="check every paper claim (the scorecard)")
    pv.add_argument("--paper-scale", action="store_true",
                    help="validate at the paper's exact parameters")
    pv.set_defaults(run=None)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.figure == "validate":
        from .validate import format_report, validate

        results = validate(paper_scale=args.paper_scale)
        print(format_report(results))
        return 0 if all(r.passed for r in results) else 1
    if args.figure == "all":
        for name in ("fig2", "fig4", "fig5"):
            sub_args = ap.parse_args([name])
            print(sub_args.run(sub_args))
            print()
    else:
        print(args.run(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
