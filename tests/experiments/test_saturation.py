"""The saturation experiment: graceful degradation under admission
control (services-layer evidence, not a paper figure)."""

import json
import subprocess
import sys

import pytest

from repro.experiments.saturation import (
    SaturationRow,
    rows_to_json,
    run_point,
    run_saturation,
)


class TestRunPoint:
    def test_light_load_sheds_nothing(self):
        row = run_point(1, requests=5, capacity=2)
        assert row.accepted == 5
        assert row.shed == 0
        assert row.p99_ms >= row.p50_ms > 0

    def test_overload_sheds_with_admission_on(self):
        off = run_point(6, requests=6, capacity=None)
        on = run_point(6, requests=6, capacity=2, throttle=False)
        assert off.shed == 0
        assert off.accepted == 36
        assert on.shed > 0
        assert on.accepted + on.shed == 36
        # Bounded queue: accepted-request p99 beats the unbounded queue.
        assert on.p99_ms < off.p99_ms

    def test_deterministic(self):
        a = run_point(4, requests=5, capacity=2)
        b = run_point(4, requests=5, capacity=2)
        assert a == b

    def test_throttle_counts_paced_requests(self):
        row = run_point(6, requests=6, capacity=1, throttle=True)
        assert row.throttled > 0


class TestSweep:
    def test_three_series_and_json_round_trip(self):
        results = run_saturation(clients=(1, 6), requests=5, capacity=2)
        assert set(results) == {"admission_off", "admission_on",
                                "admission_on_throttled"}
        for rows in results.values():
            assert [r.clients for r in rows] == [1, 6]
            assert all(isinstance(r, SaturationRow) for r in rows)
        doc = json.loads(rows_to_json(results))
        assert doc["admission_on"][1]["shed"] > 0
        assert doc["admission_off"][1]["shed"] == 0

    @pytest.mark.slow
    def test_degradation_is_graceful(self):
        """The acceptance shape: without admission p99 grows with the
        client count; with admission it stays near the queue bound."""
        results = run_saturation(clients=(1, 4, 16), requests=10,
                                 capacity=4)
        off = results["admission_off"]
        on = results["admission_on"]
        assert off[2].p99_ms > 3 * off[0].p99_ms      # unbounded growth
        assert on[2].p99_ms < 0.7 * off[2].p99_ms     # bounded queue
        assert on[2].shed > 0


class TestCli:
    def test_saturation_subcommand_writes_json(self, tmp_path):
        out = tmp_path / "sat.json"
        r = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--plot",
             "saturation", "--clients", "1", "4", "--requests", "4",
             "--capacity", "2", "--json", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0, r.stderr
        assert "admission off" in r.stdout
        assert "p99" in r.stdout
        doc = json.loads(out.read_text())
        assert set(doc) == {"admission_off", "admission_on",
                            "admission_on_throttled"}

    def test_saturation_trace_records_the_sheds(self, tmp_path, capsys):
        from repro.experiments import cli
        from repro.tools import validate_chrome_trace

        out = tmp_path / "sat-trace.json"
        assert cli.main(["--trace", str(out), "saturation", "--clients", "4",
                         "--requests", "4", "--capacity", "1"]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        assert validate_chrome_trace(json.loads(out.read_text()),
                                     require_phases=("shed",)) > 0
