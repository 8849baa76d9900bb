"""Work counters and CLI wall times of the experiment runs, written to
``benchmarks/results/BENCH_<git-short-sha>.json``.

The counters are what a run *does*, and they are deterministic: for each
of ``fig2``, ``fig4``, ``fig5``, ``saturation`` and ``validate`` the
number of ``SimKernel.run`` calls, the kernel events and context
switches they processed, the packets and bytes the transport sent
(``Transport.bytes_sent``), the remote client requests started and the
messages sent through the run-time systems (``RuntimeSystem.send`` and
``send_reserved``).  Like ``perfbench/layers.py`` they are counted by
wrapping methods from outside ``src/``, in this process.  The CLI stdout
of each run is hashed alongside, so two trees can be shown to print the
same results.

The wall times are what a run *costs*: each CLI run as a fresh,
unpinned ``python -m repro.experiments`` process, over interleaved
rounds, keeping every reading and the minimum.  ``--against SRC`` times
another checkout's ``src`` directory in the same rounds, alternating
which side goes first, so a before/after pair shares the host's moods::

    PYTHONPATH=src python benchmarks/trajectory.py                  # full sizes, 3 rounds
    PYTHONPATH=src python benchmarks/trajectory.py --against ../parent/src --rounds 5
    PYTHONPATH=src python benchmarks/trajectory.py --smoke --rounds 0 --out /tmp/b.json

The counters are always taken at the sizes of the virtual-time golden
test ("smoke", about 2 s) and, unless ``--smoke`` is given, at the CLI
defaults ("full"); the wall times are taken at the largest sizes
counted, and ``--rounds 0`` skips them.  The counters are printed next
to those of the newest committed file, so a change in the work done
shows up at once.  This script gates nothing; the tier-1 test
``tests/experiments/test_work_counters.py`` fails when the smoke
counters or stdout hashes differ from that file's.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"

#: CLI arguments of each run: the defaults, and the golden test's sizes
RUNS = {
    "full": {
        "fig2": ["fig2"],
        "fig4": ["fig4"],
        "fig5": ["fig5"],
        "saturation": ["saturation"],
        "validate": ["validate"],
    },
    "smoke": {
        "fig2": ["fig2", "--sizes", "200"],
        "fig4": ["fig4", "--procs", "2", "--nseqs", "60", "--rounds", "3"],
        "fig5": ["fig5", "--procs", "2", "--steps", "10"],
        "saturation": ["saturation", "--clients", "1", "4", "8",
                       "--requests", "10", "--capacity", "4"],
        "validate": ["validate"],
    },
}


COUNTERS = ("kernel_runs", "events", "switches", "packets", "bytes",
            "client_requests", "rts_messages")


# -- counters ------------------------------------------------------------------

class Counters:
    """Wraps the counted methods on their classes until :meth:`close`."""

    def __init__(self) -> None:
        from repro.core.pipeline.state import ClientRequestState
        from repro.netsim.transport import Transport
        from repro.runtime.interface import RuntimeSystem
        from repro.simkernel.kernel import SimKernel

        self.n = dict.fromkeys(COUNTERS, 0)
        # kernel id -> (kernel, events, switches, bytes) after its last run
        self._seen: dict[int, tuple] = {}
        self._transports: dict[int, Transport] = {}   # by its kernel's id
        self._patches = []
        n, seen, transports = self.n, self._seen, self._transports

        def run(orig):
            def wrapped(kernel, *args, **kwargs):
                n["kernel_runs"] += 1
                try:
                    return orig(kernel, *args, **kwargs)
                finally:
                    # A kernel may run more than once (run(until=...)):
                    # count only what this run added.
                    _, ev, sw, nb = seen.get(id(kernel), (kernel, 0, 0, 0))
                    transport = transports.get(id(kernel))
                    sent = transport.bytes_sent if transport else 0
                    n["events"] += kernel.events_processed - ev
                    n["switches"] += kernel.context_switches - sw
                    n["bytes"] += sent - nb
                    seen[id(kernel)] = (kernel, kernel.events_processed,
                                        kernel.context_switches, sent)
            return wrapped

        def transport_init(orig):
            def wrapped(transport, kernel, *args, **kwargs):
                orig(transport, kernel, *args, **kwargs)
                transports[id(kernel)] = transport
            return wrapped

        def calls(orig, key):
            def wrapped(*args, **kwargs):
                n[key] += 1
                return orig(*args, **kwargs)
            return wrapped

        self._patch(SimKernel, "run", run)
        self._patch(Transport, "__init__", transport_init)
        self._patch(Transport, "send", lambda f: calls(f, "packets"))
        for name in ("send", "send_reserved"):
            self._patch(RuntimeSystem, name,
                        lambda f: calls(f, "rts_messages"))
        self._patch(ClientRequestState, "start",
                    lambda f: calls(f, "client_requests"))

    def _patch(self, cls, name, wrap) -> None:
        orig = cls.__dict__[name]
        setattr(cls, name, wrap(orig))
        self._patches.append((cls, name, orig))

    def close(self) -> dict:
        for cls, name, orig in reversed(self._patches):
            setattr(cls, name, orig)
        self._seen.clear()
        self._transports.clear()
        return dict(self.n)


def count(argv: list[str]) -> dict:
    """Run one CLI command in this process; its counters and stdout hash."""
    from repro.experiments.cli import main

    counters = Counters()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            main(argv)
    finally:
        row = counters.close()
    row["stdout_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return row


# -- wall times ----------------------------------------------------------------

def wall_time(src: pathlib.Path, argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "repro.experiments", *argv],
                   env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def wall_times(runs: dict, sides: dict, rounds: int) -> dict:
    """``{side: {run: [seconds per round]}}``; the sides alternate which
    goes first from one round to the next."""
    names = list(sides)
    out = {side: {run: [] for run in runs} for side in names}
    for r in range(rounds):
        for run, argv in runs.items():
            for side in (names if r % 2 == 0 else names[::-1]):
                s = wall_time(sides[side], argv)
                out[side][run].append(round(s, 3))
                print(f"  round {r + 1}/{rounds} {run:10s} {side:7s} "
                      f"{s:7.2f} s", file=sys.stderr, flush=True)
    return out


# -- provenance ----------------------------------------------------------------

def git(src: pathlib.Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def describe(src: pathlib.Path) -> dict:
    """The short sha of ``src``'s checkout, and whether ``src`` differs
    from that commit."""
    try:
        return {"sha": git(src, "rev-parse", "--short", "HEAD"),
                "dirty": bool(git(src, "status", "--porcelain", "--", "."))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def pinned() -> bool | None:
    """Whether this process may run on fewer CPUs than the machine has."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return len(os.sched_getaffinity(0)) < (os.cpu_count() or 1)


def newest(skip: pathlib.Path) -> dict | None:
    """The committed result with the latest date."""
    found = [(data["date"], path.name, data)
             for path in RESULTS.glob("BENCH_*.json")
             if path.resolve() != skip.resolve()
             for data in [json.loads(path.read_text())]]
    return max(found)[2] if found else None


def print_counters(result: dict, base: dict | None) -> None:
    print(f"{'run':20s} " + " ".join(f"{c:>15s}" for c in COUNTERS)
          + f"   (vs {base['sha'] if base else '-'})")
    for sizes, rows in result["counters"].items():
        for run, row in rows.items():
            old = (base or {}).get("counters", {}).get(sizes, {}).get(run, {})
            print_row(f"{run} ({sizes})", row, old)
    wall = result.get("wall_s", {})
    for side in ("this", "against"):
        if side in wall:
            print(f"wall-time minima ({wall['sizes']}), {side}: " + ", ".join(
                f"{run} {min(ts):.2f} s" for run, ts in wall[side].items()))


def print_row(label: str, row: dict, old: dict) -> None:
    cells = []
    for c in COUNTERS:
        cell = f"{row[c]:,}"
        if c in old and old[c] != row[c]:
            cell += f" ({row[c] - old[c]:+,})"
        cells.append(f"{cell:>15s}")
    same = "" if not old else (
        "  stdout same" if old["stdout_sha256"] == row["stdout_sha256"]
        else "  stdout DIFFERS")
    print(f"{label:20s} " + " ".join(cells) + same)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="only the golden test's sizes, not the defaults")
    ap.add_argument("--rounds", type=int, default=3,
                    help="interleaved wall-time rounds (0: counters only)")
    ap.add_argument("--against", type=pathlib.Path, default=None,
                    metavar="SRC", help="another checkout's src/ to time "
                    "in the same rounds")
    ap.add_argument("--out", type=pathlib.Path, default=None,
                    help="default: benchmarks/results/BENCH_<sha>.json")
    args = ap.parse_args(argv)

    sizes = ["smoke"] if args.smoke else ["smoke", "full"]
    here = describe(SRC)
    result = {
        **here,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "pinned": pinned(),
        "argv": {size: RUNS[size] for size in sizes},
        "counters": {},
    }
    for size in sizes:
        rows = result["counters"][size] = {}
        for run, cli in RUNS[size].items():
            print(f"counting {run} ({size}) ...", file=sys.stderr, flush=True)
            rows[run] = count(cli)
    if args.rounds > 0:
        sides = {"this": SRC}
        if args.against is not None:
            sides["against"] = args.against.resolve()
            result["against"] = describe(sides["against"])
        result["wall_s"] = {
            "sizes": sizes[-1],
            **wall_times(RUNS[sizes[-1]], sides, args.rounds),
        }

    name = f"BENCH_{here['sha']}{'-dirty' if here['dirty'] else ''}.json"
    out = args.out or RESULTS / name
    print_counters(result, newest(out))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
