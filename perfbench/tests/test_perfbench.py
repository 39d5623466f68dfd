"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.spans import Span, SpanRecorder, layer_table, self_times
from perfbench.stats import percentile, score_digest, tail
from perfbench.worker import layer_metrics

BENCH = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("n,q", [(19, None), (20, 50.0), (99, 50.0),
                                 (100, 90.0), (199, 90.0), (200, 95.0),
                                 (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    out = tail(list(range(n)))
    assert out["q"] == q and out["n"] == n
    if q is not None:
        assert out["value"] == percentile(list(range(n)), q)


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2, 5], 50) == 3
    assert percentile([0.0, 10.0], 90) == 9.0


def test_self_time_arithmetic_on_a_span_tree():
    spans = [Span("cluster.driver.run_search", 0.0, 10.0, None, None),
             Span("tensor.fit", 1.0, 4.0, 0, "0"),
             Span("checkpoint.save", 5.0, 9.0, 0, "0"),
             Span("checkpoint.save", 6.0, 7.0, 2, "0")]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    table = layer_table(spans)
    assert table["wall_s"] == 10.0
    assert table["layers"]["cluster"] == 3.0
    assert table["layers"]["tensor"] == 3.0
    assert table["layers"]["checkpoint"] == 4.0
    assert sum(table["layers"].values()) == table["wall_s"]
    save = table["names"]["checkpoint.save"]      # nested save counted once
    assert (save["calls"], save["busy_s"], save["self_s"]) == (1, 4.0, 4.0)


def test_a_span_counted_twice_is_refused():
    spans = [Span("cluster.driver.run_search", 0.0, 2.0, None, None),
             Span("tensor.fit", 0.0, 2.0, 0, None),
             Span("tensor.fit", 0.0, 2.0, 0, None)]
    with pytest.raises(ValueError, match="negative self time"):
        layer_table(spans)


def test_recorder_nests_spans_and_tags_candidates():
    mod = types.SimpleNamespace(inner=lambda x: x + 1)

    def outer(cid):
        return mod.inner(cid)

    mod.outer = outer
    ticks = iter(range(100))
    with SpanRecorder(clock=lambda: float(next(ticks))) as rec:
        rec.wrap(mod, "inner", "tensor.fit")
        rec.wrap(mod, "outer", "cluster.driver.submit",
                 candidate=lambda cid: f"c{cid}")
        assert mod.outer(7) == 8
    assert [(s.name, s.parent, s.candidate) for s in rec.spans] == [
        ("cluster.driver.submit", None, "c7"), ("tensor.fit", 0, "c7")]
    assert rec.candidate is None and mod.outer is outer


def test_wrapped_names_are_restored():
    targets = workloads.boundaries()
    before = [(attr in vars(owner), vars(owner).get(attr))
              for owner, attr, _, _ in targets]
    rec = SpanRecorder()
    workloads.instrument(rec)
    assert all(vars(owner).get(attr) is not raw
               for (owner, attr, _, _), (_, raw) in zip(targets, before))
    rec.restore()
    after = [(attr in vars(owner), vars(owner).get(attr))
             for owner, attr, _, _ in targets]
    assert after == before

    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with SpanRecorder() as rec:
        rec.wrap(Child, "f", "nas.ask")
        assert "f" in vars(Child) and Child().f() == 1
    assert "f" not in vars(Child) and Child.f is Base.f


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_passes_its_output_checks(name, tmp_path):
    make = workloads.WORKLOADS[name]
    plain = make(3, tmp_path / "plain", tiny=True).run()
    with SpanRecorder() as rec:
        workloads.instrument(rec)
        traced = make(3, tmp_path / "traced", tiny=True).run()
    for out in (plain, traced):
        assert len(out.records) == out.expected_records
        assert not [r for r in out.records if not r.ok]
        assert all(s.state == "done" and not s.fault_stats
                   for s in out.sessions)
        assert out.admission_errors == 0
    assert score_digest(plain.rows) == score_digest(traced.rows)
    table = layer_table(rec.spans)
    assert sum(table["layers"].values()) == pytest.approx(table["wall_s"])
    metrics = layer_metrics(table, traced)
    assert metrics["tensor.fit.calls"] == traced.expected_records
    assert metrics["cluster.driver.self_s"] >= 0.0
    assert sum(v for k, v in metrics.items()
               if k.startswith("share.")) == pytest.approx(1.0)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evo-cifar10",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
