"""Pinned virtual-time results of the experiment harnesses.

The other experiment tests check the shape of each figure; this one
checks the numbers.  It runs ``fig2``, ``fig4``, ``fig5``, the saturation
sweep and the ``validate`` scorecard at small scale and compares the
``repr()`` of every virtual-time float (and every count) against
``virtual_time_golden.json``.  A host-side change to the kernel, the
pipeline or CDR must leave all of them byte-identical; a change to the
model itself is the only reason to regenerate the golden::

    PYTHONPATH=src python tests/experiments/test_virtual_time_golden.py --write
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.core import OrbConfig
from repro.experiments import validate as scorecard
from repro.experiments.fig2_solvers import run_fig2
from repro.experiments.fig4_dna import run_fig4
from repro.experiments.fig5_pipeline import run_fig5, run_overall
from repro.experiments.saturation import run_saturation
from repro.tools.observe import TraceSession

GOLDEN = pathlib.Path(__file__).with_name("virtual_time_golden.json")

#: Fig. 2's ``difference`` is the solvers' numerical disagreement, not a
#: virtual time, so it is left to the shape tests.
_NOT_VIRTUAL = {"difference"}


def _pin(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, float):
        return repr(value)
    raise TypeError(f"unexpected result type {type(value).__name__}")


def _rows(rows, skip=frozenset()):
    return [{k: _pin(v) for k, v in dataclasses.asdict(r).items()
             if k not in skip}
            for r in rows]


def collect_figures(session=None) -> dict:
    """fig2, fig4 and fig5 at the CLI smoke sizes; ``session`` (a
    :class:`~repro.tools.observe.TraceSession`) instruments every run."""
    return {
        "fig2": _rows(run_fig2(sizes=(200,), session=session), _NOT_VIRTUAL),
        "fig4": _rows(run_fig4(procs=(2,), n_seqs=60, rounds=3,
                               session=session)),
        "fig5": _rows(run_fig5(procs=(2,), steps=10, session=session)),
    }


def collect() -> dict:
    """Every pinned figure, keyed by experiment."""
    out = {
        **collect_figures(),
        "saturation": {
            series: _rows(rows) for series, rows in run_saturation(
                clients=(1, 4, 8), requests=10, capacity=4).items()
        },
    }
    # The scorecard: the data every claim is judged on, the §6 pair it
    # computes itself, and each verdict.
    data = scorecard._data(paper_scale=False)
    out["validate"] = {
        "fig2": _rows(data["fig2"], _NOT_VIRTUAL),
        "fig4": _rows(data["fig4"]),
        "fig5": _rows(data["fig5"]),
        "s6": {
            "base": _pin(run_overall(2, steps=20, n=32,
                                     config=OrbConfig(max_outstanding=1))),
            "relief": _pin(run_overall(
                2, steps=20, n=32,
                config=OrbConfig(max_outstanding=4,
                                 communication_threads=True))),
        },
        "claims": {c.id: bool(c.check(data)) for c in scorecard.CLAIMS},
    }
    return out


@pytest.fixture(scope="module")
def results():
    return collect()


@pytest.mark.parametrize("experiment",
                         ["fig2", "fig4", "fig5", "saturation", "validate"])
def test_virtual_times_match_golden(results, experiment):
    golden = json.loads(GOLDEN.read_text())
    assert results[experiment] == golden[experiment]


def test_every_instrument_leaves_the_figures_unchanged():
    """Observation must not change the answer: with an observer, tracing
    and a metrics registry on every run, the figures match the golden."""
    session = TraceSession(metrics=True)
    figures = collect_figures(session)
    golden = json.loads(GOLDEN.read_text())
    assert figures == {name: golden[name] for name in figures}
    assert session.handles
    assert all(h.registry is not None for h in session.handles)
    assert all(len(h.observer) > 0 and h.observer.cdr_bytes["encoded"] > 0
               for h in session.handles)


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
