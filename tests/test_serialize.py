"""Tests for model and trace serialization."""

import numpy as np
import pytest

from repro.ml.gbt import GBTParams, GradientBoostedTrees
from repro.ml.serialize import (
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.workload import FB_PROFILE, scaled_profile, synthesize_trace
from repro.workload.jobs import FileCreation, FileDeletion, OutputSpec, TraceJob
from repro.workload.serialize import (
    EventWriter,
    event_from_dict,
    event_to_dict,
    iter_events,
    load_trace,
    read_stream_header,
    save_events,
    save_trace,
    stream_duration,
    trace_from_dict,
    trace_to_dict,
)

# Warnings (e.g. divide-by-zero in masked gain lanes) fail the test.
pytestmark = pytest.mark.filterwarnings("error")


def fitted_model(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((300, 5))
    X[rng.random((300, 5)) < 0.1] = np.nan
    y = (np.nan_to_num(X[:, 0], nan=0.8) > 0.5).astype(int)
    model = GradientBoostedTrees(GBTParams(num_rounds=4, max_depth=4)).fit(X, y)
    return model, X


class TestModelSerialization:
    def test_roundtrip_predictions_identical(self):
        model, X = fitted_model()
        clone = model_from_dict(model_to_dict(model))
        assert np.allclose(model.predict_proba(X), clone.predict_proba(X))

    def test_roundtrip_preserves_params(self):
        model, _ = fitted_model()
        clone = model_from_dict(model_to_dict(model))
        assert clone.params == model.params
        assert clone.num_trees == model.num_trees

    def test_file_roundtrip(self, tmp_path):
        model, X = fitted_model()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(model.predict_proba(X), loaded.predict_proba(X))

    def test_missing_value_routing_survives(self):
        model, _ = fitted_model()
        clone = model_from_dict(model_to_dict(model))
        probe = np.full((1, 5), np.nan)
        assert model.predict_proba(probe)[0] == pytest.approx(
            clone.predict_proba(probe)[0]
        )

    def test_unfitted_rejected(self):
        from repro.ml.serialize import tree_to_dict
        from repro.ml.tree import RegressionTree

        with pytest.raises(ValueError):
            tree_to_dict(RegressionTree())

    def test_bad_version_rejected(self):
        model, _ = fitted_model()
        data = model_to_dict(model)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_dict(data)


class TestTraceSerialization:
    def test_roundtrip_equality(self):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=3)
        clone = trace_from_dict(trace_to_dict(trace))
        assert clone.name == trace.name
        assert clone.duration == trace.duration
        assert len(clone.jobs) == len(trace.jobs)
        assert [c.path for c in clone.creations] == [c.path for c in trace.creations]
        for a, b in zip(clone.jobs, trace.jobs):
            assert a.input_paths == b.input_paths
            assert a.outputs == b.outputs
            assert a.submit_time == b.submit_time

    def test_statistics_preserved(self):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=3)
        clone = trace_from_dict(trace_to_dict(trace))
        assert clone.total_bytes == trace.total_bytes
        assert clone.never_read_fraction() == trace.never_read_fraction()

    def test_file_roundtrip(self, tmp_path):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=4)
        path = str(tmp_path / "trace.json")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.file_count == trace.file_count

    def test_bad_version_rejected(self):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=5)
        data = trace_to_dict(trace)
        data["format_version"] = 0
        with pytest.raises(ValueError):
            trace_from_dict(data)


SAMPLE_EVENTS = [
    FileCreation("/data/a", 64, 0.0),
    TraceJob(
        job_id=0,
        submit_time=5.0,
        input_paths=["/data/a"],
        input_size=64,
        outputs=[OutputSpec("/out/a", 16)],
        cpu_seconds_per_byte=1e-8,
    ),
    FileDeletion("/data/a", 9.0),
]


class TestEventCodec:
    @pytest.mark.parametrize("event", SAMPLE_EVENTS, ids=["create", "job", "delete"])
    def test_round_trip(self, event):
        assert event_from_dict(event_to_dict(event)) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"kind": "munge"})

    def test_not_an_event_rejected(self):
        with pytest.raises(TypeError):
            event_to_dict("nope")

    def test_job_defaults_tolerated(self):
        job = event_from_dict({"kind": "job", "time": 1.0, "inputs": ["/a"]})
        assert job.job_id == -1
        assert job.input_size == 0
        assert job.outputs == []


class TestStreamingJsonl:
    @pytest.mark.parametrize("suffix", ["jsonl", "jsonl.gz"])
    def test_trace_round_trip(self, tmp_path, suffix):
        trace = synthesize_trace(scaled_profile(FB_PROFILE, 0.05), seed=3)
        path = str(tmp_path / f"trace.{suffix}")
        written = save_events(trace, path)
        events = list(iter_events(path))
        assert written == len(events)
        assert events == list(trace.events())
        header = read_stream_header(path)
        assert header["name"] == trace.name
        assert header["duration"] == trace.duration
        assert stream_duration(path) == trace.duration

    def test_append_writer_continues_a_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with EventWriter(path, name="t", duration=10.0) as writer:
            writer.write(SAMPLE_EVENTS[0])
        with EventWriter(path, append=True) as writer:
            writer.write_all(SAMPLE_EVENTS[1:])
            assert writer.events_written == 2
        assert list(iter_events(path)) == SAMPLE_EVENTS

    def test_write_after_close_rejected(self, tmp_path):
        writer = EventWriter(str(tmp_path / "t.jsonl"))
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.write(SAMPLE_EVENTS[0])

    def test_headerless_file_readable(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"kind": "create", "time": 1.0, "path": "/a", "bytes": 5}\n')
        assert read_stream_header(str(path)) == {}
        assert list(iter_events(str(path))) == [FileCreation("/a", 5, 1.0)]
        assert stream_duration(str(path)) == 1.0

    def test_bad_stream_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "format_version": 99}\n')
        with pytest.raises(ValueError, match="version"):
            read_stream_header(str(path))

    def test_misplaced_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "create", "time": 1.0, "path": "/a", "bytes": 5}\n'
            '{"kind": "header", "format_version": 1}\n'
        )
        with pytest.raises(ValueError, match="header after first line"):
            list(iter_events(str(path)))

    def test_save_events_is_streaming(self, tmp_path):
        """save_events drains a generator without materializing it."""

        def generator():
            for event in SAMPLE_EVENTS:
                yield event

        path = str(tmp_path / "gen.jsonl")
        assert save_events(generator(), path, name="gen", duration=9.0) == 3
        assert list(iter_events(path)) == SAMPLE_EVENTS
