"""Op profiler: attribution, patch/restore hygiene, disabled overhead."""

import json
import time

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.nn.segment import segment_sum
from repro.obs.profiler import OpProfiler, active_profiler


def _rows_by_key(prof):
    return {(r["op"], r["phase"]): r for r in prof.table()}


class TestProfiling:
    def test_forward_and_backward_attribution(self):
        a = Tensor(np.random.rand(8, 8), requires_grad=True)
        b = Tensor(np.random.rand(8, 8), requires_grad=True)
        with OpProfiler() as prof:
            ((a @ b) + a).sum().backward()
        rows = _rows_by_key(prof)
        for op in ("matmul", "add", "sum"):
            assert rows[(op, "forward")]["count"] == 1
            assert rows[(op, "backward")]["count"] == 1
        assert rows[("autograd.backward", "block")]["count"] == 1
        # forward matmul allocated an 8x8 float64 output
        assert rows[("matmul", "forward")]["bytes"] == 8 * 8 * 8

    def test_free_function_hook(self):
        values = Tensor(np.ones(6), requires_grad=True)
        segments = np.array([0, 0, 1, 1, 2, 2])
        with OpProfiler() as prof:
            segment_sum(values, segments, 3).sum().backward()
        rows = _rows_by_key(prof)
        assert rows[("segment_sum", "forward")]["count"] == 1
        assert rows[("segment_sum", "backward")]["count"] == 1

    def test_composite_op_backward_not_double_counted(self):
        # mean is built from sum and mul: both inner nodes fire exactly
        # once in backward, and the composite wrapper must NOT claim the
        # already-wrapped innermost node as a second "mean" row.
        a = Tensor(np.random.rand(16), requires_grad=True)
        with OpProfiler() as prof:
            a.mean().backward()
        rows = _rows_by_key(prof)
        assert ("mean", "backward") not in rows
        assert rows[("sum", "backward")]["count"] == 1
        assert rows[("mul", "backward")]["count"] == 1

    def test_blocks_and_attributed_fraction(self):
        with OpProfiler() as prof:
            with prof.block("outer"):
                with prof.block("inner"):
                    time.sleep(0.01)
        rows = _rows_by_key(prof)
        outer, inner = rows[("outer", "block")], rows[("inner", "block")]
        assert inner["total_s"] >= 0.01
        assert outer["total_s"] >= inner["total_s"]
        # nesting: outer's self time excludes inner's duration
        assert outer["self_s"] < inner["total_s"]
        assert prof.attributed_fraction() > 0.5

    def test_chrome_trace_export(self, tmp_path):
        a = Tensor(np.random.rand(4), requires_grad=True)
        with OpProfiler() as prof:
            (a * 2.0).sum().backward()
        path = prof.write_chrome_trace(str(tmp_path / "profile.json"))
        payload = json.load(open(path))
        assert {e["name"] for e in payload["traceEvents"]} >= {"mul", "sum"}
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        assert payload["otherData"]["table"]

    def test_format_table_mentions_wall_clock(self):
        with OpProfiler() as prof:
            with prof.block("x"):
                pass
        text = prof.format_table()
        assert "wall-clock" in text and "attributed" in text


class TestPatchHygiene:
    def test_methods_restored_after_disable(self):
        originals = {
            name: getattr(Tensor, name) for name in ("__add__", "sum", "backward")
        }
        with OpProfiler():
            assert Tensor.sum is not originals["sum"]
        for name, fn in originals.items():
            assert getattr(Tensor, name) is fn
        assert active_profiler() is None

    def test_second_profiler_rejected_while_active(self):
        with OpProfiler():
            with pytest.raises(RuntimeError):
                OpProfiler().enable()

    def test_enable_disable_idempotent(self):
        prof = OpProfiler()
        prof.enable()
        prof.enable()
        prof.disable()
        prof.disable()
        assert active_profiler() is None


def _step(a, b):
    return ((a @ b).tanh() + a).sum()


def _time_once(a, b, inner=30):
    t0 = time.perf_counter()
    for _ in range(inner):
        _step(a, b)
    return time.perf_counter() - t0


def test_disabled_profiler_overhead_under_5_percent():
    """Enabling then disabling must leave the tensor fast path untouched.

    Every patched method must be the very object it was before the
    cycle.  For timing, each round times the step before and after one
    enable/disable cycle; a leaked wrapper slows every "after" against
    its own baseline.  Timing noise on a shared CPU dwarfs any single
    measurement, so the bound is asserted on the median ratio over the
    rounds: drift affects both halves of a round alike and cancels.
    """
    import statistics

    from repro import _obshook
    from repro.obs.profiler import _TENSOR_METHODS

    attrs = [attr for attr, _ in _TENSOR_METHODS] + ["backward"]
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((96, 96)), requires_grad=True)
    b = Tensor(rng.standard_normal((96, 96)), requires_grad=True)
    _time_once(a, b)  # warm caches
    before = {attr: vars(Tensor)[attr] for attr in attrs}
    ratios = []
    for _ in range(24):
        baseline = _time_once(a, b)
        with OpProfiler():  # exercise the patch/restore cycle under test
            _step(a, b)
        ratios.append(_time_once(a, b) / baseline)
        for attr in attrs:
            assert vars(Tensor)[attr] is before[attr], f"Tensor.{attr} still patched"
        assert _obshook.HOOK is None
    median = statistics.median(ratios)
    assert median <= 1.05, (
        f"disabled instrumentation added {(median - 1) * 100:.1f}% overhead"
    )
