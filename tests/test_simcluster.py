"""SimulatedCluster: virtual clock + real scores."""

import functools

import pytest

from repro.apps import get_app
from repro.checkpoint import CheckpointStore
from repro.cluster import (
    CostModel,
    FaultModel,
    RetryPolicy,
    SerialEvaluator,
    SimulatedCluster,
    run_search,
)
from repro.experiments.config import get_config
from repro.nas import RegularizedEvolution


def make_cluster(problem, tmp_path, gpus=4, store=True, **kw):
    s = CheckpointStore(tmp_path / f"store_g{gpus}") if store else None
    return SimulatedCluster(problem, s, num_gpus=gpus, **kw)


def strategy_for(space, seed=0):
    return RegularizedEvolution(space, rng=seed, population_size=4,
                                sample_size=2)


def test_cost_model_arithmetic():
    cm = CostModel(base_seconds=10.0, seconds_per_param=1e-3,
                   dispatch_latency=0.5, ckpt_latency=0.1,
                   write_bandwidth=1e6, read_bandwidth=2e6)
    assert cm.train_seconds(1000, 1.0) == pytest.approx(11.0)
    assert cm.train_seconds(1000, 2.0) == pytest.approx(5.5)
    assert cm.save_seconds(1_000_000) == pytest.approx(1.1)
    assert cm.load_seconds(1_000_000) == pytest.approx(0.6)


def test_virtual_clock_advances(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path, gpus=2)
    trace = cluster.run(strategy_for(problem.space), 6, scheme="lcs",
                        seed=0)
    assert len(trace) == 6
    for r in trace:
        assert r.end_time > r.start_time >= 0.0
    assert trace.makespan > 0.0
    assert trace.busy_time <= 2 * trace.makespan


def test_more_gpus_do_not_slow_the_run(problem, tmp_path):
    slow = make_cluster(problem, tmp_path, gpus=1)
    fast = make_cluster(problem, tmp_path, gpus=4)
    t_slow = slow.run(strategy_for(problem.space), 8, scheme="baseline",
                      seed=0)
    t_fast = fast.run(strategy_for(problem.space), 8, scheme="baseline",
                      seed=0)
    assert t_fast.makespan <= t_slow.makespan


def test_baseline_has_zero_overhead(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path, store=False)
    trace = cluster.run(strategy_for(problem.space), 6, scheme="baseline",
                        seed=0)
    assert trace.total_overhead == 0.0
    assert all(r.ckpt_bytes == 0 for r in trace)


def test_transfer_scheme_pays_checkpoint_io(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path)
    trace = cluster.run(strategy_for(problem.space), 8, scheme="lcs",
                        seed=0)
    assert trace.total_overhead > 0.0
    assert any(r.ckpt_bytes > 0 for r in trace.ok_records())


def test_heterogeneous_gpu_speeds(problem, tmp_path):
    uniform = make_cluster(problem, tmp_path, gpus=2)
    skewed = SimulatedCluster(
        problem, CheckpointStore(tmp_path / "skew"), num_gpus=2,
        gpu_speeds=(1.0, 0.25))
    t_uniform = uniform.run(strategy_for(problem.space), 6,
                            scheme="baseline", seed=0)
    t_skewed = skewed.run(strategy_for(problem.space), 6,
                          scheme="baseline", seed=0)
    assert t_skewed.makespan > t_uniform.makespan


def test_scores_are_real_not_simulated(problem, tmp_path):
    cluster = make_cluster(problem, tmp_path)
    trace = cluster.run(strategy_for(problem.space), 5, scheme="lcs",
                        seed=0)
    scores = [r.score for r in trace.ok_records()]
    assert len(set(scores)) > 1              # actual training happened
    assert all(-1.0 <= s <= 1.0 for s in scores)


# ---------------------------------------------------------------------------
# one lifecycle: the simulator and run_search produce the same search
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def smoke_problem(app):
    overrides = get_config("smoke").app_overrides[app]
    return get_app(app).problem(seed=0, **overrides)


PARITY_CASES = [
    pytest.param("cifar10", "lcs", {}, id="cifar10-lcs"),
    pytest.param("mnist", "lp", {}, id="mnist-lp"),
    pytest.param("mnist", "baseline", {}, id="mnist-baseline"),
    pytest.param("mnist", "lcs", {"transfer_backend": "supernet"},
                 id="mnist-lcs-supernet"),
    pytest.param("cifar10", "lcs", {"zero_cost": "gradnorm"},
                 id="cifar10-lcs-gradnorm"),
]


@pytest.mark.parametrize("app,scheme,knobs", PARITY_CASES)
def test_one_gpu_simulation_matches_serial_run_search(app, scheme, knobs,
                                                      tmp_path):
    """One virtual GPU drains every completion before the next ask, so
    it must replay a serial run_search candidate for candidate."""
    problem = smoke_problem(app)

    def store(tag):
        return None if scheme == "baseline" else \
            CheckpointStore(tmp_path / tag)

    def rows(trace):
        return [(r.candidate_id, r.arch_seq, r.provider_id, r.score, r.ok,
                 r.num_params, r.transfer_coverage) for r in trace]

    simulated = SimulatedCluster(problem, store("sim"), num_gpus=1).run(
        strategy_for(problem.space), 16, scheme=scheme, seed=0, **knobs)
    real = run_search(problem, strategy_for(problem.space), 16,
                      scheme=scheme, store=store("real"),
                      evaluator=SerialEvaluator(), seed=0, **knobs)
    assert len(simulated) == 16
    assert rows(simulated) == rows(real)


class _NeverAsked(RegularizedEvolution):
    def ask(self):
        raise AssertionError("the search started before validation")


@pytest.mark.parametrize("knob,message", [
    ({"scheme": "lsc"}, "unknown scheme 'lsc', expected"),
])
def test_simulator_validates_like_run_search_before_training(
        problem, tmp_path, knob, message):
    cluster = make_cluster(problem, tmp_path, gpus=2)
    with pytest.raises(ValueError, match=message):
        cluster.run(_NeverAsked(problem.space, rng=0), 4, seed=0, **knob)
    with pytest.raises(ValueError, match=message):
        run_search(problem, _NeverAsked(problem.space, rng=0), 4,
                   store=cluster.store, seed=0, **knob)


def test_simulated_retry_backoff_draws_jitter(problem, tmp_path):
    def backoff(tag, jitter):
        cluster = make_cluster(problem, tmp_path / tag, gpus=2)
        trace = cluster.run(
            strategy_for(problem.space, seed=1), 8, scheme="lcs", seed=1,
            faults=FaultModel(crash_prob=0.5),
            retry=RetryPolicy(max_attempts=8, base_delay=1.0,
                              jitter=jitter))
        assert trace.fault_stats["retries"] > 0
        return trace.fault_stats["backoff_seconds"]

    plain = backoff("plain", 0.0)
    jittered = backoff("jitter", 0.5)
    # crash draws come from the fault stream, so both runs retry the
    # same attempts; jitter only adds seconds, from a seeded stream
    assert jittered > plain
    assert backoff("again", 0.5) == jittered
