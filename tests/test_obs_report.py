"""The telemetry digest (obs_report) and the artifact checker (check)."""

import json

import pytest

from repro.config.presets import smoke
from repro.errors import ObservabilityError
from repro.metrics.obs_report import ObsReport, main, obs_report, render
from repro.obs.check import check_directory
from repro.obs.check import main as check_main
from repro.obs.events import make_event
from repro.obs.manifest import RunManifest
from repro.obs.profiler import ComponentProfile, RunProfile
from repro.obs.writer import JsonlWriter


def _write_log(path, scheduler="CF", n_placements=3):
    events = [
        make_event(
            "run_start",
            run=path.stem,
            scheduler=scheduler,
            seed=4,
            n_sockets=24,
            n_steps=100,
        )
    ]
    events += [
        make_event(
            "placement", step=i, t=i * 0.5, job_id=i, socket=i % 4
        )
        for i in range(n_placements)
    ]
    events.append(
        make_event(
            "run_end",
            run=path.stem,
            n_completed=n_placements,
            energy_j=12.5,
            max_queue_length=1,
        )
    )
    with JsonlWriter(path) as writer:
        for event in events:
            writer.emit(event)
    return events


def _write_manifest(path, scheduler="CF", profile=None):
    manifest = RunManifest(
        config_key="k" + path.stem,
        scheduler=scheduler,
        benchmark_set="Computation",
        load=0.5,
        seed=4,
        params=dict(smoke(seed=4).__dict__),
        topology={"token_sha256": "0" * 64},
        profile=profile.to_dict() if profile else None,
    )
    manifest.save(path)
    return manifest


def _profile(total_s):
    return RunProfile(
        engine_elapsed_s=total_s * 2,
        n_steps=100,
        components=(
            ComponentProfile(name="Placer", calls=102, total_s=total_s),
        ),
    )


# -- obs_report ------------------------------------------------------------


def test_digest_counts_and_spans(tmp_path):
    _write_log(tmp_path / "run-r0.jsonl", n_placements=4)
    report = obs_report(tmp_path)
    assert isinstance(report, ObsReport)
    assert len(report.runs) == 1
    run = report.runs[0]
    assert run.n_events == 6
    assert run.by_type["placement"] == 4
    assert run.span_s == pytest.approx(1.5)  # t: 0.0 .. 1.5
    assert not run.truncated
    assert report.totals["run_start"] == 1
    assert report.manifests == 0


def test_schedulers_and_profiles_merged_across_manifests(tmp_path):
    _write_log(tmp_path / "a-r0.jsonl", scheduler="CF")
    _write_log(tmp_path / "b-r0.jsonl", scheduler="CP")
    _write_manifest(
        tmp_path / "a.manifest.json", scheduler="CF", profile=_profile(1.0)
    )
    _write_manifest(
        tmp_path / "b.manifest.json", scheduler="CP", profile=_profile(2.0)
    )
    report = obs_report(tmp_path)
    assert report.manifests == 2
    assert report.schedulers == ["CF", "CP"]
    assert report.profile is not None
    assert report.profile.engine_elapsed_s == pytest.approx(6.0)
    assert report.profile.n_steps == 200
    (placer,) = report.profile.components
    assert placer.calls == 204
    assert placer.total_s == pytest.approx(3.0)


def test_truncated_log_flagged_not_fatal(tmp_path):
    path = tmp_path / "run-r0.jsonl"
    _write_log(path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])  # kill mid-final-line
    report = obs_report(tmp_path)
    assert report.runs[0].truncated
    assert "truncated" in render(report)


def test_interior_corruption_is_fatal(tmp_path):
    path = tmp_path / "run-r0.jsonl"
    _write_log(path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"{broken"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ObservabilityError, match="corrupt"):
        obs_report(tmp_path)


def test_missing_and_empty_directories_raise(tmp_path):
    with pytest.raises(ObservabilityError, match="does not exist"):
        obs_report(tmp_path / "absent")
    with pytest.raises(ObservabilityError, match="no telemetry artifacts"):
        obs_report(tmp_path)


def test_render_mentions_the_essentials(tmp_path):
    _write_log(tmp_path / "run-r0.jsonl")
    _write_manifest(
        tmp_path / "run.manifest.json", profile=_profile(1.0)
    )
    text = render(obs_report(tmp_path))
    assert "1 event log(s)" in text
    assert "schedulers: CF" in text
    assert "placement" in text
    assert "aggregate profile" in text


def test_cli_text_and_json(tmp_path, capsys):
    _write_log(tmp_path / "run-r0.jsonl")
    assert main([str(tmp_path)]) == 0
    assert "event log(s)" in capsys.readouterr().out
    assert main([str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["placement"] == 3


def test_cli_missing_directory_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "absent")]) == 2
    assert "error:" in capsys.readouterr().err


# -- the checker -----------------------------------------------------------


def test_check_valid_directory(tmp_path):
    _write_log(tmp_path / "run-r0.jsonl")
    _write_manifest(tmp_path / "run.manifest.json")
    assert check_directory(tmp_path) == []
    assert check_main([str(tmp_path)]) == 0


def test_check_flags_corrupt_log_and_bad_manifest(tmp_path, capsys):
    path = tmp_path / "run-r0.jsonl"
    _write_log(path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"{broken"
    path.write_bytes(b"\n".join(lines))
    (tmp_path / "run.manifest.json").write_text("{oops", encoding="utf-8")
    problems = check_directory(tmp_path)
    assert len(problems) == 2
    assert check_main([str(tmp_path)]) == 1
    assert "2 invalid telemetry artifact(s)" in capsys.readouterr().err


def test_check_truncation_strict_by_default(tmp_path):
    path = tmp_path / "run-r0.jsonl"
    _write_log(path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    assert check_directory(tmp_path)  # strict: truncation is a problem
    assert check_directory(tmp_path, allow_truncated=True) == []
    assert check_main([str(tmp_path), "--allow-truncated"]) == 0


def test_check_empty_log_is_a_problem(tmp_path):
    (tmp_path / "run-r0.jsonl").write_bytes(b"")
    (problem,) = check_directory(tmp_path)
    assert "no events" in problem


def test_check_missing_directory_exits_2(tmp_path, capsys):
    with pytest.raises(ObservabilityError, match="does not exist"):
        check_directory(tmp_path / "absent")
    assert check_main([str(tmp_path / "absent")]) == 2
    assert "error:" in capsys.readouterr().err


def test_profile_buckets_merged_across_manifests(tmp_path):
    def bucketed(total_s, policy):
        return RunProfile(
            engine_elapsed_s=total_s * 2,
            n_steps=100,
            components=(
                ComponentProfile(
                    name="Placer", calls=102, total_s=total_s
                ),
            ),
            buckets=(
                ComponentProfile(
                    name=f"place:{policy}", calls=10, total_s=total_s / 2
                ),
            ),
        )

    _write_log(tmp_path / "a-r0.jsonl", scheduler="CF")
    _write_log(tmp_path / "b-r0.jsonl", scheduler="CF")
    _write_log(tmp_path / "c-r0.jsonl", scheduler="CP")
    _write_manifest(
        tmp_path / "a.manifest.json", profile=bucketed(1.0, "CF")
    )
    _write_manifest(
        tmp_path / "b.manifest.json", profile=bucketed(2.0, "CF")
    )
    _write_manifest(
        tmp_path / "c.manifest.json",
        scheduler="CP",
        profile=bucketed(4.0, "CP"),
    )
    profile = obs_report(tmp_path).profile
    assert [b.name for b in profile.buckets] == ["place:CF", "place:CP"]
    cf, cp = profile.buckets
    assert cf.calls == 20
    assert cf.total_s == pytest.approx(1.5)
    assert cp.calls == 10
    assert cp.total_s == pytest.approx(2.0)
    assert "place:CF" in render(obs_report(tmp_path))
