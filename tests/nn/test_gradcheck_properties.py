"""Property-based gradient checks: random shapes/values, core op set."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat
from tests.conftest import check_gradients

small_floats = st.floats(-3, 3, allow_nan=False, width=64)


def matrices(min_side=1, max_side=4):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side)),
        elements=small_floats,
    )


class TestRandomizedGradients:
    @given(matrices())
    @settings(max_examples=15, deadline=None)
    def test_sigmoid_chain(self, x):
        check_gradients(lambda a: a.sigmoid().tanh(), x)

    @given(matrices())
    @settings(max_examples=15, deadline=None)
    def test_softmax_any_shape(self, x):
        check_gradients(lambda a: F.softmax(a), x)

    @given(matrices(min_side=2))
    @settings(max_examples=15, deadline=None)
    def test_matmul_with_transpose(self, x):
        check_gradients(lambda a: a @ a.T, x)

    @given(matrices())
    @settings(max_examples=15, deadline=None)
    def test_sum_then_exp(self, x):
        check_gradients(lambda a: a.sum(axis=0).exp(), x)

    @given(matrices(min_side=2), st.integers(0, 1))
    @settings(max_examples=15, deadline=None)
    def test_mean_axes(self, x, axis):
        check_gradients(lambda a: a.mean(axis=axis), x)

    @given(matrices())
    @settings(max_examples=10, deadline=None)
    def test_self_concat(self, x):
        check_gradients(lambda a: concat([a, a * 2.0], axis=0), x)

    @given(
        arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(1, 4)),
               elements=small_floats),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_index_select_random_indices(self, x, data):
        n = x.shape[0]
        indices = np.array(
            data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
        )
        check_gradients(lambda a: a.index_select(indices), x)

    @given(matrices())
    @settings(max_examples=10, deadline=None)
    def test_division_stable_region(self, x):
        # keep denominators away from zero
        check_gradients(lambda a: a / (a * a + 1.0), x)
