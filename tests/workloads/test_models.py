"""Tests for the Table 2 workload models."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.gpu import A100_SXM4_40GB
from repro.workloads import (
    INFERENCE_MODELS,
    TRAINING_MODELS,
    WorkloadKind,
    get_model,
)

SPEC = A100_SXM4_40GB
ALL_MODELS = {**TRAINING_MODELS, **INFERENCE_MODELS}


class TestSuiteComposition:
    def test_six_training_six_inference(self):
        assert len(TRAINING_MODELS) == 6
        assert len(INFERENCE_MODELS) == 6

    def test_get_model_lookup(self):
        assert get_model("bert_infer").kind is WorkloadKind.INFERENCE
        assert get_model("bert_train").kind is WorkloadKind.TRAINING

    def test_get_model_unknown(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_model("alexnet")


class TestTraceConstruction:
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_trace_is_deterministic(self, name):
        model = ALL_MODELS[name]
        a = model.build_trace(SPEC, seed=3)
        b = model.build_trace(SPEC, seed=3)
        assert [k.name for k in a.kernels] == [k.name for k in b.kernels]
        assert a.gpu_time == b.gpu_time

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_different_seeds_differ(self, name):
        model = ALL_MODELS[name]
        a = model.build_trace(SPEC, seed=1)
        b = model.build_trace(SPEC, seed=2)
        assert a.gpu_time != b.gpu_time

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_kernel_count_matches_spec(self, name):
        model = ALL_MODELS[name]
        trace = model.build_trace(SPEC)
        assert len(trace.kernels) == model.num_kernels

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_gpu_time_equals_sum_of_kernel_durations(self, name):
        model = ALL_MODELS[name]
        trace = model.build_trace(SPEC)
        assert trace.kernel_durations(SPEC).sum() == pytest.approx(
            trace.gpu_time, rel=1e-9)

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_trace_times_are_python_floats(self, name):
        # NumPy scalars here leak into every event time downstream
        trace = ALL_MODELS[name].build_trace(SPEC)
        assert type(trace.gpu_time) is float
        assert type(trace.host_time) is float
        gaps = [op.gap for op in trace.ops if op.kind == "gap"]
        assert all(type(gap) is float for gap in gaps)

    @pytest.mark.parametrize("name", sorted(TRAINING_MODELS))
    def test_host_gap_fraction_respected(self, name):
        model = TRAINING_MODELS[name]
        trace = model.build_trace(SPEC)
        fraction = trace.host_time / trace.duration
        assert fraction == pytest.approx(model.host_gap_fraction, abs=0.02)

    def test_inference_traces_have_no_host_gaps(self):
        for name, model in INFERENCE_MODELS.items():
            trace = model.build_trace(SPEC)
            assert trace.host_time == 0.0, name

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_kernel_names_unique_and_stable(self, name):
        trace = ALL_MODELS[name].build_trace(SPEC)
        names = [k.name for k in trace.kernels]
        assert len(names) == len(set(names))
        assert all(n.startswith(name) for n in names)


class TestPaperCalibration:
    def test_resnet50_kernels_are_overwhelmingly_short(self):
        """Paper §5.5: 99.3 % of ResNet50 kernels finish < 0.1 ms."""
        trace = TRAINING_MODELS["resnet50_train"].build_trace(SPEC)
        durations = trace.kernel_durations(SPEC)
        fraction = float((durations < 0.1e-3).mean())
        assert fraction > 0.97

    def test_whisper_kernels_have_heavy_tail(self):
        """Paper §5.5: 5.6 % of Whisper kernels outlast a whole BERT
        inference (3.93 ms)."""
        trace = TRAINING_MODELS["whisper_train"].build_trace(SPEC)
        durations = trace.kernel_durations(SPEC)
        fraction = float((durations > 3.93e-3).mean())
        assert 0.02 < fraction < 0.12

    def test_inference_latencies_track_table2(self):
        for name in ("resnet50_infer", "bert_infer", "yolov6m_infer"):
            model = INFERENCE_MODELS[name]
            trace = model.build_trace(SPEC)
            ratio = trace.duration / model.paper_value
            assert 0.7 < ratio < 1.4, f"{name}: {ratio:.2f}"

    def test_condensation_factors_reported(self):
        for name, model in ALL_MODELS.items():
            trace = model.build_trace(SPEC)
            factor = model.condensation(trace)
            assert factor >= 0.5, name
            if name in ("llama2_infer", "whisper_train"):
                assert factor > 5, f"{name} should be heavily condensed"

    def test_bert_inference_duration_near_3_93_ms(self):
        trace = INFERENCE_MODELS["bert_infer"].build_trace(SPEC)
        assert trace.duration == pytest.approx(3.93e-3, rel=0.25)

    def test_relative_training_speeds_preserved(self):
        """PointNet iterates fastest, Whisper slowest (Table 2 order)."""
        durations = {
            name: model.build_trace(SPEC).duration
            for name, model in TRAINING_MODELS.items()
        }
        assert min(durations, key=durations.get) == "pointnet_train"
        assert max(durations, key=durations.get) == "whisper_train"
