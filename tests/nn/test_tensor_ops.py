"""Gradient checks and semantics for every Tensor operator."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concat, ensure_tensor, is_grad_enabled, no_grad, stack, where
from tests.conftest import check_gradients


class TestArithmetic:
    def test_add_grad(self, rng):
        check_gradients(lambda a, b: a + b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_add_broadcast_grad(self, rng):
        check_gradients(lambda a, b: a + b, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_sub_grad(self, rng):
        check_gradients(lambda a, b: a - b, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_mul_grad(self, rng):
        check_gradients(lambda a, b: a * b, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))

    def test_mul_broadcast_scalar_tensor(self, rng):
        check_gradients(lambda a, b: a * b, rng.normal(size=(3, 4)), rng.normal(size=(1,)))

    def test_div_grad(self, rng):
        check_gradients(
            lambda a, b: a / b,
            rng.normal(size=(3, 3)),
            rng.uniform(1.0, 2.0, size=(3, 3)),
        )

    def test_neg_grad(self, rng):
        check_gradients(lambda a: -a, rng.normal(size=(5,)))

    def test_pow_grad(self, rng):
        check_gradients(lambda a: a**3, rng.uniform(0.5, 2.0, size=(4,)))

    def test_scalar_radd_rmul(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = (3.0 + t) * 2.0
        np.testing.assert_allclose(out.data, [8.0, 10.0])

    def test_rsub_rdiv(self):
        t = Tensor([2.0, 4.0])
        np.testing.assert_allclose((10.0 - t).data, [8.0, 6.0])
        np.testing.assert_allclose((8.0 / t).data, [4.0, 2.0])


class TestMatmul:
    def test_matmul_2d_grad(self, rng):
        check_gradients(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4, 5)))

    def test_matmul_vec_matrix_grad(self, rng):
        check_gradients(lambda a, b: a @ b, rng.normal(size=(4,)), rng.normal(size=(4, 5)))

    def test_matmul_matrix_vec_grad(self, rng):
        check_gradients(lambda a, b: a @ b, rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_matmul_batched_grad(self, rng):
        check_gradients(
            lambda a, b: a @ b, rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        )

    def test_matmul_values(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestElementwise:
    @pytest.mark.parametrize(
        "name",
        ["exp", "tanh", "sigmoid", "cos", "sin", "relu", "abs"],
    )
    def test_unary_grads(self, rng, name):
        x = rng.normal(size=(3, 4)) + 0.05  # nudge away from relu/abs kinks
        check_gradients(lambda a: getattr(a, name)(), x)

    def test_sigmoid_saturates_without_float_errors(self):
        """At x = -1000 the one-branch ``1/(1+exp(-x))`` overflowed exp."""
        x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
        with np.errstate(all="raise"):
            out = Tensor(x).sigmoid().data
            check_gradients(lambda a: a.sigmoid(), x)
        assert out[0] == 0.0 and out[-1] == 1.0
        np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-x[1:4])), rtol=1e-15)

    def test_log_grad(self, rng):
        check_gradients(lambda a: a.log(), rng.uniform(0.5, 2.0, size=(3, 3)))

    def test_sqrt(self, rng):
        x = rng.uniform(1.0, 4.0, size=(4,))
        np.testing.assert_allclose(Tensor(x).sqrt().data, np.sqrt(x))

    def test_leaky_relu_grad(self, rng):
        x = rng.normal(size=(3, 4)) + 0.05
        check_gradients(lambda a: a.leaky_relu(0.1), x)

    def test_leaky_relu_negative_branch(self):
        out = Tensor([-2.0, 3.0]).leaky_relu(0.5)
        np.testing.assert_allclose(out.data, [-1.0, 3.0])

    def test_clamp_grad(self, rng):
        x = rng.normal(size=(6,)) * 2
        check_gradients(lambda a: a.clamp(-1.0, 1.0), x)

    def test_clamp_values(self):
        out = Tensor([-5.0, 0.0, 5.0]).clamp(-1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.0, 1.0])


class TestReductions:
    def test_sum_all_grad(self, rng):
        check_gradients(lambda a: a.sum(), rng.normal(size=(3, 4)))

    def test_sum_axis_grad(self, rng):
        check_gradients(lambda a: a.sum(axis=1), rng.normal(size=(3, 4)))

    def test_sum_keepdims_grad(self, rng):
        check_gradients(lambda a: a.sum(axis=0, keepdims=True), rng.normal(size=(3, 4)))

    def test_mean_grad(self, rng):
        check_gradients(lambda a: a.mean(axis=1), rng.normal(size=(3, 4)))

    def test_mean_matches_numpy(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(x).mean(axis=0).data, x.mean(axis=0))

    def test_max_grad_no_ties(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        check_gradients(lambda a: a.max(axis=1), x)

    def test_max_values(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(x).max(axis=1).data, x.max(axis=1))


class TestShapes:
    def test_reshape_grad(self, rng):
        check_gradients(lambda a: a.reshape(2, 6), rng.normal(size=(3, 4)))

    def test_reshape_tuple_arg(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        assert x.reshape((2, 6)).shape == (2, 6)

    def test_transpose_grad(self, rng):
        check_gradients(lambda a: a.transpose(), rng.normal(size=(3, 4)))

    def test_transpose_axes_grad(self, rng):
        check_gradients(lambda a: a.transpose(1, 2, 0), rng.normal(size=(2, 3, 4)))

    def test_T_property(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(x).T.data, x.T)

    def test_getitem_grad(self, rng):
        check_gradients(lambda a: a[1:3], rng.normal(size=(5, 2)))

    def test_getitem_fancy_grad(self, rng):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: a[idx], rng.normal(size=(4, 3)))


class TestIndexing:
    def test_index_select_grad(self, rng):
        idx = np.array([0, 1, 1, 3])
        check_gradients(lambda a: a.index_select(idx), rng.normal(size=(4, 3)))

    def test_index_select_repeated_rows_accumulate(self):
        w = Tensor(np.eye(3), requires_grad=True)
        out = w.index_select(np.array([1, 1]))
        out.sum().backward()
        assert w.grad[1].sum() == pytest.approx(6.0)  # two rows x 3 entries
        assert w.grad[0].sum() == pytest.approx(0.0)

    def test_scatter_add_grad(self, rng):
        idx = np.array([0, 2, 2, 1])
        check_gradients(
            lambda base, src: base.scatter_add(idx, src),
            rng.normal(size=(3, 2)),
            rng.normal(size=(4, 2)),
        )

    def test_scatter_add_values(self):
        base = Tensor(np.zeros((3, 2)))
        src = Tensor(np.ones((4, 2)))
        out = base.scatter_add(np.array([0, 0, 2, 2]), src)
        np.testing.assert_allclose(out.data, [[2, 2], [0, 0], [2, 2]])


class TestCombinators:
    def test_concat_grad(self, rng):
        check_gradients(
            lambda a, b: concat([a, b], axis=1),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 2)),
        )

    def test_concat_axis0(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(1, 3))
        np.testing.assert_allclose(
            concat([Tensor(a), Tensor(b)]).data, np.concatenate([a, b])
        )

    def test_stack_grad(self, rng):
        check_gradients(
            lambda a, b: stack([a, b], axis=1),
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 3)),
        )

    def test_where_grad(self, rng):
        cond = np.array([[True, False], [False, True]])
        check_gradients(
            lambda a, b: where(cond, a, b),
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2)),
        )


class TestGraphMechanics:
    def test_backward_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_grad_flag_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 3
        assert not y.requires_grad

    def test_no_grad_is_thread_local(self):
        # grad mode must be per-thread: a serving thread inside no_grad()
        # must not disable autograd for a training thread, and concurrent
        # enter/exit must not corrupt the restored state (a process-global
        # flag fails both — save/restore interleaves across threads)
        import threading

        inside = threading.Event()
        release = threading.Event()
        seen = {}

        def hold_no_grad():
            with no_grad():
                seen["worker_inside"] = is_grad_enabled()
                inside.set()
                release.wait(timeout=10)
            seen["worker_after"] = is_grad_enabled()

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        assert inside.wait(timeout=10)
        try:
            # worker is inside no_grad(); this thread is unaffected
            assert is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            assert x.requires_grad
            (x * 2).backward()
            assert x.grad[0] == pytest.approx(2.0)
        finally:
            release.set()
            worker.join(timeout=10)
        assert seen["worker_inside"] is False
        assert seen["worker_after"] is True

        # interleaved enter/exit across many threads leaves every thread
        # (and this one) with grad enabled afterwards
        barrier = threading.Barrier(4)
        results = []

        def churn():
            for _ in range(50):
                with no_grad():
                    barrier.wait(timeout=10)
                    assert not is_grad_enabled()
            results.append(is_grad_enabled())

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == [True] * 4
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach() * 5
        assert not y.requires_grad

    def test_diamond_graph_grad(self):
        # z = (x*2) + (x*3); dz/dx = 5
        x = Tensor([1.0], requires_grad=True)
        a = x * 2
        b = x * 3
        (a + b).backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_deep_chain_is_iterative_not_recursive(self):
        # 3000-op chain would blow Python's default recursion limit if
        # the topological sort were recursive
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        assert x.grad[0] == pytest.approx(1.0)

    def test_ensure_tensor_passthrough(self):
        t = Tensor([1.0])
        assert ensure_tensor(t) is t
        assert isinstance(ensure_tensor([1.0, 2.0]), Tensor)

    def test_comparison_returns_numpy(self):
        t = Tensor([1.0, 3.0])
        mask = t > 2.0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])
