"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest perfbench/tests -q

Every workload runs one round at a tiny size; the checks must pass on the
package as it is, and must fail when an expectation is deliberately wrong.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import expect
import run
import tracer
import workloads

PERFBENCH = Path(run.__file__).resolve().parent
PACKAGE = run.import_package()
ERRORS = (PACKAGE.DomainError, PACKAGE.ConsistencyError)


class TinyQueries(workloads.Queries):
    MIX = tuple((kind, 4) for kind, _ in workloads.Queries.MIX)
    trace_rounds = 1


class TinyVerify(workloads.Verify):
    ORBIT, ROOT, PAIR, SEARCH = 1, 2, 1, 1


class TinyCli(workloads.Cli):
    def make_round(self, rng):
        return [r for r in super().make_round(rng) if r.argv[0] != "verify"]


class TinyBulk(workloads.Bulk):
    SCAN = (9, 19)
    MODULI_DMAX = (8, 9)
    TYPES = ((10**3, 1, 5), (10**4, -1, 4), (10**5, 1, 3))
    THRESHOLD_DECADES = {2: 1, 3: 2, 4: 1}
    BEYOND_LIMIT = ()


TINY = {"queries": TinyQueries, "verify": TinyVerify, "cli": TinyCli, "bulk": TinyBulk}


def one_round(name, seed=7):
    workload = TINY[name](run.child_env())
    tally, metrics, extra, counts = run.timed_run(workload, seed, 0, ERRORS)
    return tally, metrics, extra, counts


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_workload_passes_its_checks_at_a_tiny_size(name):
    tally, metrics, extra, counts = one_round(name)
    assert counts["rounds"] == 1
    assert tally.attempted > 0
    assert (tally.failed, tally.wrong) == (0, 0), tally.failures
    assert extra["failed_ratio"][0] == 0
    for key in ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "wall_s", "peak_rss_mb"):
        assert metrics[key][0] > 0


def test_same_seed_same_inputs_and_digest():
    def digest(seed):
        return one_round("queries", seed)[0].digest.hexdigest()

    assert digest(3) == digest(3) != digest(4)


def test_wrong_expectation_raises_failed_ratio(monkeypatch):
    monkeypatch.setattr(expect, "cube", lambda p, a, b: 1 + 3 * a * a * b
                        - 3 * p[0] * a * b * b + (p[0] * p[0] - p[1]) * b**3)
    tally, _, extra, _ = one_round("queries")
    assert extra["failed_ratio"][0] > 0
    assert tally.wrong == tally.failed > 0
    assert all(f["request"].startswith("triple_self_product") for f in tally.failures)


def test_threshold_beyond_the_search_limit_is_listed_as_failed():
    class Beyond(TinyBulk):
        BEYOND_LIMIT = (13,)

    tally, _, extra, _ = run.timed_run(Beyond(run.child_env()), 1, 0, ERRORS)
    assert tally.failed == 1 and extra["failed_ratio"][0] == 1 / tally.attempted
    (failure,) = tally.failures
    assert failure["request"].startswith("threshold --pair=") and failure["exit"] == 3
    assert tally.wrong == 0


def test_traced_calls_repeat_exactly_and_tracing_is_removed():
    original = PACKAGE.normalize
    first = run.traced_run(TinyVerify(), 5, ERRORS, run.child_env())
    second = run.traced_run(TinyVerify(), 5, ERRORS, run.child_env())
    calls = {k: v for k, (v, unit) in first[1].items() if k.endswith(".calls")}
    assert calls == {k: v for k, (v, unit) in second[1].items() if k.endswith(".calls")}
    assert calls["oracles.orbit_agreement_sweep.calls"] == 1
    assert calls["orbits.normalize.calls"] > 0 and calls["chow.pb_mul.calls"] > 0
    assert PACKAGE.normalize is original and PACKAGE.orbits.normalize is original
    assert "__wrapped__" not in vars(PACKAGE.ChernPair.__post_init__)


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.install()
    try:
        PACKAGE.complex_report(PACKAGE.ChernPair(0, 1), PACKAGE.ChernPair(2, 2))
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["classify.complex_report.calls"][0] == 1
    i = t.names.index("classify.complex_report")
    assert 0 < t.self_ns[i] < t.total_ns[i]


def test_expectations_agree_with_the_documented_examples():
    assert expect.normal_form((5, 6)) == ((-1, 0), -3)
    assert expect.threshold((0, 0)) == 3 and expect.types((0, 0), 3) == [4, 5, 6]
    assert expect.hcob((0, 1), (2, 2)) == ("unknown", "open-h-cobordism", None)
    assert expect.presentation((0, 2)) == "Z[H,t]/(H^3, t^2 + 2*H^2)"
    assert expect.cubic_text((0, 2)) == "3*a^2*b - 2*b^3"
    assert sum(n for _, n in expect.scan_orbits(-3, 4, -5, 6)) == 8 * 12
    naive = [d for d in range(200) if expect.q1((-1, 500), d) > 0 and all(
        expect.gamma((-1, 500), d, e) > 0 for e in range(-1, d))][0]
    assert expect.threshold((-1, 500)) == naive


def test_command_prints_the_contract_line(tmp_path):
    out = tmp_path / "results.jsonl"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "verify", "--seed", "1",
         "--seconds", "0.1", "--trace", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    record = json.loads(out.read_text())
    assert record["why"] == workloads.WHY["verify"] and record["nproc"] >= 1
    compare = subprocess.run([sys.executable, str(PERFBENCH / "compare.py"), str(out), str(out)],
                             capture_output=True, text=True, timeout=60)
    assert compare.returncode == 0 and "wall_s" in compare.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rounds_have_fixed_composition():
    a = TinyQueries().make_round(random.Random(1))
    b = TinyQueries().make_round(random.Random(2))
    assert sorted(r[0] for r in a) == sorted(r[0] for r in b)
