"""Gradcheck property tests for the fused segment reductions.

Every op is validated against the test-side dense oracle (one-hot
matmul sum, per-segment masked max; see ``tests/nn/segment_oracles.py``) in
both value and gradient, over layouts that exercise the edge cases real
graphs produce: empty segments, a single edge, and non-contiguous
destination ids.  The ``impl`` parameter names the kernel pair the ops
run on: ``fused`` is the production ``reduceat`` kernel, ``reference``
and ``dense`` are the oracles substituted in, so the ``np.add.at``
oracle the metric-parity test relies on is itself checked here.
"""

import numpy as np
import pytest

from repro.nn import segment
from repro.nn.segment import (
    SegmentLayout,
    segment_max,
    segment_mean,
    segment_softmax,
    segment_sum,
    segment_sum_data,
)
from repro.nn.tensor import Tensor
from tests.conftest import check_gradients
from tests.nn.segment_oracles import dense_max, dense_sum, segment_kernels, scatter_sum

# (segments, num_segments) cases: empty segments interleaved,
# single-edge graphs, and non-contiguous destination ids.
CASES = [
    pytest.param(np.array([0, 0, 1, 1, 1, 3]), 5, id="empty-segments"),
    pytest.param(np.array([2]), 4, id="single-edge"),
    pytest.param(np.array([7, 2, 7, 0, 2, 7, 11]), 13, id="non-contiguous"),
    pytest.param(np.array([], dtype=np.int64), 3, id="no-edges"),
    pytest.param(np.array([1, 1, 1, 1]), 2, id="one-hot-segment"),
]

OPS = [segment_sum, segment_mean, segment_max]


def dense_reference(op, values, segments, num_segments):
    with segment_kernels("dense"):
        return op(Tensor(values), segments, num_segments).data


class TestLayout:
    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SegmentLayout(np.array([0, 5]), 5)
        with pytest.raises(ValueError, match="out of range"):
            SegmentLayout(np.array([-1]), 5)

    def test_csr_invariants(self):
        layout = SegmentLayout(np.array([3, 0, 3, 1]), 6)
        assert layout.num_entries == 4
        np.testing.assert_array_equal(layout.counts, [1, 1, 0, 2, 0, 0])
        np.testing.assert_array_equal(layout.indptr, [0, 1, 2, 2, 4, 4, 4])
        np.testing.assert_array_equal(layout.nonempty, [1, 1, 0, 1, 0, 0])
        np.testing.assert_array_equal(layout.starts, [0, 1, 2])
        # stable sort keeps the two segment-3 entries in input order
        np.testing.assert_array_equal(layout.segments[layout.order], [0, 1, 3, 3])

    def test_num_segments_required_without_layout(self):
        with pytest.raises(ValueError, match="num_segments"):
            segment_sum(Tensor(np.ones(2)), np.array([0, 1]))


class TestForwardAgainstDense:
    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("op", OPS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("impl", ["fused", "reference"])
    def test_matches_dense(self, op, segments, num_segments, impl, rng):
        values = rng.normal(size=(len(segments), 3))
        expected = dense_reference(op, values, segments, num_segments)
        with segment_kernels(impl):
            out = op(Tensor(values), segments, num_segments).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("impl", ["fused", "reference"])
    def test_softmax_matches_dense(self, segments, num_segments, impl, rng):
        scores = rng.normal(size=len(segments)) * 3
        with segment_kernels("dense"):
            expected = segment_softmax(Tensor(scores), segments, num_segments).data
        with segment_kernels(impl):
            out = segment_softmax(Tensor(scores), segments, num_segments).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_softmax_groups_sum_to_one(self, rng):
        segments = np.array([0, 2, 0, 2, 2, 4])
        out = segment_softmax(Tensor(rng.normal(size=6)), segments, 5)
        sums = segment_sum_data(out.data, segments, 5)
        np.testing.assert_allclose(sums[[0, 2, 4]], [1.0, 1.0, 1.0])
        assert sums[1] == sums[3] == 0.0

    def test_layout_and_raw_ids_agree(self, rng):
        segments = np.array([4, 1, 4, 0])
        layout = SegmentLayout(segments, 6)
        values = rng.normal(size=(4, 2))
        np.testing.assert_array_equal(
            segment_sum(Tensor(values), layout).data,
            segment_sum(Tensor(values), segments, 6).data,
        )

    def test_segment_sum_data_raw_numpy(self, rng):
        segments = np.array([1, 1, 3])
        values = rng.normal(size=(3, 2))
        out = segment_sum_data(values, segments, 4)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out[1], values[:2].sum(axis=0))
        np.testing.assert_allclose(out[3], values[2])
        assert out[0].sum() == out[2].sum() == 0.0


class TestGradients:
    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize(
        "op", [segment_sum, segment_mean], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize("impl", ["fused", "reference", "dense"])
    def test_linear_ops(self, op, segments, num_segments, impl, rng):
        values = rng.normal(size=(len(segments), 2))
        with segment_kernels(impl):
            check_gradients(lambda v: op(v, segments, num_segments), values)

    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("impl", ["fused", "reference"])
    def test_max(self, segments, num_segments, impl, rng):
        # well-separated values keep the argmax stable under the
        # finite-difference probes
        values = rng.permutation(len(segments) * 2).reshape(len(segments), 2) * 1.0
        with segment_kernels(impl):
            check_gradients(lambda v: segment_max(v, segments, num_segments), values)

    def test_max_tied_gradient_splits_equally(self):
        values = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        out = segment_max(values, np.array([0, 0, 0]), 1)
        out.backward()
        np.testing.assert_allclose(values.grad, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("segments,num_segments", CASES)
    @pytest.mark.parametrize("impl", ["fused", "reference", "dense"])
    def test_softmax(self, segments, num_segments, impl, rng):
        scores = rng.normal(size=len(segments))
        with segment_kernels(impl):
            check_gradients(
                lambda s: segment_softmax(s, segments, num_segments), scores
            )

    def test_softmax_rejects_matrix_scores(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            segment_softmax(Tensor(rng.normal(size=(3, 2))), np.array([0, 1, 1]), 2)

    def test_gradient_flows_through_layout_path(self, rng):
        layout = SegmentLayout(np.array([0, 2, 2]), 4)
        values = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        segment_sum(values, layout).sum().backward()
        np.testing.assert_allclose(values.grad, np.ones((3, 2)))


class TestKernels:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("segments,num_segments", CASES)
    def test_match_oracles_and_keep_dtype(self, segments, num_segments, dtype, rng):
        layout = SegmentLayout(segments, num_segments)
        values = rng.normal(size=(len(segments), 3)).astype(dtype)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for kernel, oracle in ((segment._sum_data, dense_sum), (segment._max_data, dense_max)):
            out = kernel(values, layout)
            assert out.dtype == dtype
            np.testing.assert_allclose(out, oracle(values, layout), atol=tol)
        np.testing.assert_allclose(
            segment._sum_data(values, layout), scatter_sum(values, layout), atol=tol
        )

    def test_ops_route_through_the_substituted_kernels(self, monkeypatch):
        # the oracle tests are only meaningful if every op (and
        # index_select's backward) looks the kernels up at call time
        def sevens(values, layout):
            return np.full((layout.num_segments,) + values.shape[1:], 7.0)

        monkeypatch.setattr(segment, "_sum_data", sevens)
        monkeypatch.setattr(segment, "_max_data", sevens)
        segments = np.array([0, 0, 2])
        assert (segment_sum(Tensor(np.ones((3, 2))), segments, 3).data == 7.0).all()
        assert (segment_max(Tensor(np.ones((3, 2))), segments, 3).data == 7.0).all()
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        w.index_select(np.array([1, 1])).sum().backward()
        assert (w.grad == 7.0).all()
