"""Property-based tests: transformations preserve kernel semantics.

Hypothesis drives random problem instances, random slice sizes, random
worker counts, random block execution orders, and random preemption
points; the invariant is always the same — the transformed execution
produces exactly the output of the original kernel.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ptx import Interpreter, case_names, make_case
from repro.transform import make_preemptible, make_sliced, make_unified_sync

CASES = case_names()

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def case_and_seed(draw):
    name = draw(st.sampled_from(CASES))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return name, seed


class TestSlicingProperties:
    @given(case_and_seed(), st.integers(min_value=1, max_value=64))
    @_settings
    def test_any_slice_size_preserves_semantics(self, case_seed, slice_size):
        name, seed = case_seed
        case = make_case(name, np.random.default_rng(seed))
        sliced = make_sliced(case.kernel)
        interp = Interpreter(case.memory)
        for launch in sliced.plan(case.grid, slice_size):
            args = sliced.args_for(case.args, case.grid, launch.offset)
            interp.launch(sliced.kernel, launch.grid, case.block, args)
        case.check()

    @given(case_and_seed(), st.integers(min_value=1, max_value=8),
           st.randoms(use_true_random=False))
    @_settings
    def test_slice_order_irrelevant(self, case_seed, slice_size, rnd):
        name, seed = case_seed
        case = make_case(name, np.random.default_rng(seed))
        sliced = make_sliced(case.kernel)
        launches = sliced.plan(case.grid, slice_size)
        rnd.shuffle(launches)
        interp = Interpreter(case.memory)
        for launch in launches:
            args = sliced.args_for(case.args, case.grid, launch.offset)
            interp.launch(sliced.kernel, launch.grid, case.block, args)
        case.check()


class TestUnifiedSyncProperties:
    @given(case_and_seed(), st.randoms(use_true_random=False))
    @_settings
    def test_semantics_under_random_block_order(self, case_seed, rnd):
        name, seed = case_seed
        case = make_case(name, np.random.default_rng(seed))
        usync = make_unified_sync(case.kernel)
        Interpreter(case.memory).launch(
            usync.kernel, case.grid, case.block, case.args,
            shuffle_blocks=rnd,
        )
        case.check()


class TestPTBProperties:
    @pytest.mark.slow
    @given(case_and_seed(), st.integers(min_value=1, max_value=12))
    @_settings
    def test_any_worker_count_preserves_semantics(self, case_seed, workers):
        name, seed = case_seed
        case = make_case(name, np.random.default_rng(seed))
        pk = make_preemptible(case.kernel)
        control = pk.make_control(case.memory)
        args = pk.args_for(case.args, case.grid, control)
        Interpreter(case.memory).launch(
            pk.kernel, pk.worker_grid(workers), case.block, args
        )
        case.check()

    @given(case_and_seed(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=200, max_value=20_000))
    @_settings
    def test_preempt_anywhere_then_resume(self, case_seed, workers,
                                          preempt_after):
        """Preempting at an arbitrary instruction count and resuming
        always converges to the correct result."""
        name, seed = case_seed
        case = make_case(name, np.random.default_rng(seed))
        pk = make_preemptible(case.kernel)
        control = pk.make_control(case.memory)
        args = pk.args_for(case.args, case.grid, control)

        interp = Interpreter(
            case.memory,
            instr_hook=lambda _i: control.request_preemption(),
            hook_interval=preempt_after,
        )
        interp.launch(pk.kernel, pk.worker_grid(workers), case.block, args)
        progress_after_preempt = control.tasks_started()
        assert 0 <= progress_after_preempt <= case.grid.total + workers

        control.clear_preemption()
        Interpreter(case.memory).launch(
            pk.kernel, pk.worker_grid(workers), case.block, args
        )
        case.check()
