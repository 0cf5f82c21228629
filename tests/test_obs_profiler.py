"""The step profiler: accounting model, serialisation, engine wiring."""

from types import SimpleNamespace

import pytest

from repro.errors import ObservabilityError
from repro.obs.profiler import ComponentProfile, RunProfile, StepProfiler
from repro.sim.engine import Engine


class _FakeClock:
    """A deterministic monotonic clock: +1.0 s per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _NullComponent:
    def on_run_start(self, ctx):
        pass

    def on_step(self, ctx):
        pass

    def on_run_end(self, ctx):
        pass


def _fake_ctx(n_steps):
    return SimpleNamespace(
        n_steps=n_steps,
        dt=0.001,
        warmup_s=0.0,
        state=SimpleNamespace(time_s=0.0),
        result=SimpleNamespace(profile=None),
        step=0,
        time_s=0.0,
        in_window=False,
    )


# -- StepProfiler lifecycle ------------------------------------------------


def test_profile_before_bind_raises():
    with pytest.raises(ObservabilityError, match="never attached"):
        StepProfiler().profile()


def test_bind_zeroes_accounting():
    profiler = StepProfiler(clock=_FakeClock())
    components = [_NullComponent(), _NullComponent()]
    profiler.bind(components)
    profiler.totals_s[0] = 3.0
    profiler.calls[1] = 7
    profiler.engine_elapsed_s = 9.0
    profiler.bind(components)
    assert profiler.totals_s == [0.0, 0.0]
    assert profiler.calls == [0, 0]
    assert profiler.engine_elapsed_s == 0.0


def test_reset_unbinds():
    profiler = StepProfiler()
    profiler.bind([_NullComponent()])
    profiler.reset()
    with pytest.raises(ObservabilityError):
        profiler.profile()


# -- exact accounting with a deterministic clock ---------------------------


def test_engine_accounting_is_exact():
    """With a +1 s/reading clock, chained timestamps attribute exactly
    ``n_steps + 2`` seconds to every component (one per hook call)."""
    n_steps, n_components = 5, 3
    profiler = StepProfiler(clock=_FakeClock())
    components = [_NullComponent() for _ in range(n_components)]
    ctx = _fake_ctx(n_steps)
    Engine(components, profiler=profiler).run(ctx)
    profile = ctx.result.profile
    assert isinstance(profile, RunProfile)
    assert profile.n_steps == n_steps
    assert [c.name for c in profile.components] == [
        "_NullComponent"
    ] * n_components
    for entry in profile.components:
        assert entry.calls == n_steps + 2
        assert entry.total_s == float(n_steps + 2)
    # The engine's own loop overhead (its extra clock reads) stays in
    # elapsed-but-unattributed time, so the sum bound is strict here.
    assert profile.total_component_s < profile.engine_elapsed_s


def test_unprofiled_engine_attaches_no_profile():
    ctx = _fake_ctx(3)
    Engine([_NullComponent()]).run(ctx)
    assert ctx.result.profile is None


# -- RunProfile ------------------------------------------------------------


def _profile():
    return RunProfile(
        engine_elapsed_s=2.0,
        n_steps=100,
        components=(
            ComponentProfile(name="Placer", calls=102, total_s=0.5),
            ComponentProfile(name="ThermalUpdater", calls=102, total_s=1.0),
        ),
    )


def test_round_trip_through_dict():
    profile = _profile()
    assert RunProfile.from_dict(profile.to_dict()) == profile


def test_from_dict_rejects_malformed():
    with pytest.raises(ObservabilityError, match="malformed profile"):
        RunProfile.from_dict({"engine_elapsed_s": 1.0})
    with pytest.raises(ObservabilityError, match="malformed profile"):
        RunProfile.from_dict(
            {
                "engine_elapsed_s": 1.0,
                "n_steps": 1,
                "components": [{"name": "X"}],
            }
        )


def test_share_and_mean():
    profile = _profile()
    assert profile.total_component_s == pytest.approx(1.5)
    assert profile.share(profile.components[1]) == pytest.approx(0.5)
    assert profile.components[0].mean_us == pytest.approx(
        0.5 / 102 * 1e6
    )


def test_zero_call_and_zero_elapsed_edges():
    entry = ComponentProfile(name="X", calls=0, total_s=0.0)
    assert entry.mean_us == 0.0
    empty = RunProfile(engine_elapsed_s=0.0, n_steps=0, components=(entry,))
    assert empty.share(entry) == 0.0
    assert "(engine loop)" in empty.render()  # no division by zero


def test_render_contains_components_and_loop_row():
    text = _profile().render()
    assert "Placer" in text
    assert "ThermalUpdater" in text
    assert "(engine loop)" in text
    assert "50.0%" in text  # ThermalUpdater's share of 2.0 s


# -- named sub-component buckets -------------------------------------------


def _bucketed_profile():
    return RunProfile(
        engine_elapsed_s=2.0,
        n_steps=100,
        components=(
            ComponentProfile(name="Placer", calls=102, total_s=0.5),
        ),
        buckets=(
            ComponentProfile(name="place:CP", calls=40, total_s=0.25),
        ),
    )


def test_bucket_round_trip_through_dict():
    profile = _bucketed_profile()
    data = profile.to_dict()
    assert data["buckets"] == [
        {"name": "place:CP", "calls": 40, "total_s": 0.25}
    ]
    assert RunProfile.from_dict(data) == profile


def test_from_dict_accepts_pre_bucket_digests():
    """Manifests written before buckets existed still load."""
    data = _profile().to_dict()
    del data["buckets"]
    assert RunProfile.from_dict(data).buckets == ()


def test_buckets_do_not_count_as_component_time():
    profile = _bucketed_profile()
    assert profile.total_component_s == pytest.approx(0.5)


def test_render_indents_bucket_rows_after_loop_row():
    text = _bucketed_profile().render()
    assert "  place:CP" in text
    assert text.index("place:CP") > text.index("(engine loop)")


def test_profiled_run_exposes_placement_bucket(small_sut, tmp_path):
    """An end-to-end profiled run reports the scheduler's scoring time
    under ``place:<policy>``, bounded by the Placer's own total, and
    counts exactly the placements the run's telemetry log records."""
    from repro.config.presets import smoke
    from repro.core import get_scheduler
    from repro.obs.writer import read_events
    from repro.sim.engine import Simulation
    from repro.workloads.arrivals import ArrivalProcess
    from repro.workloads.benchmark import BenchmarkSet

    params = smoke(seed=6)
    arrivals = ArrivalProcess(
        benchmark_set=BenchmarkSet.COMPUTATION,
        load=0.6,
        n_sockets=small_sut.n_sockets,
        seed=params.seed,
        duration_scale=params.duration_scale,
    )
    jobs = arrivals.generate(params.sim_time_s)
    result = Simulation(
        small_sut,
        params,
        get_scheduler("CP"),
        profile=True,
        telemetry=tmp_path,
    ).run(jobs)
    profile = result.profile
    (bucket,) = [
        entry for entry in profile.buckets if entry.name == "place:CP"
    ]
    placements = [
        event
        for event in read_events(tmp_path / "run-r0.jsonl", strict=True)
        if event["type"] == "placement"
    ]
    assert 0 < bucket.calls == len(placements) <= len(jobs)
    (placer,) = [
        entry for entry in profile.components if entry.name == "Placer"
    ]
    assert 0.0 <= bucket.total_s <= placer.total_s
