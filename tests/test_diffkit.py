import numpy as np
import pytest

from gradcheck import assert_grads_close, numeric_grad
from gridres import diffkit as dk


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        y, _ = dk.dense_forward(x, np.eye(3), np.zeros(3))
        assert np.array_equal(y, x)

    def test_shape_error_mentions_both_shapes(self):
        with pytest.raises(dk.ShapeError, match=r"\(1, 3\).*\(4, 2\)"):
            dk.dense_forward(np.zeros((1, 3)), np.zeros((4, 2)), np.zeros(2))

    def test_gradients(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, w, b = rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)
            seed = rand(rng, 4, 5)
            y, cache = dk.dense_forward(x, w, b)
            dx, dw, db = dk.dense_backward(cache, seed)

            loss = lambda: float((dk.dense_forward(x, w, b)[0] * seed).sum())
            assert_grads_close(dx, numeric_grad(lambda _: loss(), x), context="dx")
            assert_grads_close(dw, numeric_grad(lambda _: loss(), w), context="dw")
            assert_grads_close(db, numeric_grad(lambda _: loss(), b), context="db")


class TestLayerNorm:
    def test_normalization_statistics(self):
        rng = np.random.default_rng(1)
        x = rand(rng, 8, 16) * 3.0 + 1.5
        y, (xhat, _, _) = dk.layernorm_forward(x, np.ones(16), np.zeros(16))
        assert np.abs(xhat.mean(axis=-1)).max() < 1e-10
        assert np.abs(xhat.var(axis=-1) - 1.0).max() < 1e-10
        assert np.array_equal(y, xhat)

    def test_matches_numpy_mean_and_var_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for shape in ((1, 64), (128, 64), (3, 6), (5, 1, 64), (5, 7, 16)):
            x = rand(rng, *shape) * 3.0 + 1.5
            g, b = rand(rng, *shape[:-2], shape[-1]), rand(rng, *shape[:-2], shape[-1])
            mu = x.mean(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + dk.LN_EPS)
            xhat = (x - mu) * inv
            want = g[..., None, :] * xhat + b[..., None, :]
            x_in = x.copy()
            y, (got_xhat, got_inv, _) = dk.layernorm_forward(x, g, b)
            assert np.array_equal(x, x_in)  # the input is left as it was
            assert np.array_equal(y, want), shape
            assert np.array_equal(got_xhat, xhat) and np.array_equal(got_inv, inv)

    def test_stacked_groups_match_each_group_alone(self):
        """A leading group axis on input and parameters computes each
        group's layer, forward and backward, as the 2-D call would, also
        when the batch is 1 or equals the group count (where a bare (G, H)
        bias or gain would broadcast), and with a dense input shared by
        every group."""
        rng = np.random.default_rng(13)
        for batch in (1, 4, 9):
            w, b = rand(rng, 4, 3, 6), rand(rng, 4, 6)
            g, be = rand(rng, 4, 6), rand(rng, 4, 6)
            seed = rand(rng, 4, batch, 6)
            for x in (rand(rng, 4, batch, 3), rand(rng, batch, 3)):
                z, cd = dk.dense_forward(x, w, b)
                n, cn = dk.layernorm_forward(z, g, be)
                dz, dg, dbe = dk.layernorm_backward(cn, seed)
                dx, dw, db = dk.dense_backward(cd, dz)
                for k in range(4):
                    xk = x[k] if x.ndim == 3 else x
                    zk, cd_k = dk.dense_forward(xk, w[k], b[k])
                    nk, cn_k = dk.layernorm_forward(zk, g[k], be[k])
                    dz_k, dg_k, dbe_k = dk.layernorm_backward(cn_k, seed[k])
                    dx_k, dw_k, db_k = dk.dense_backward(cd_k, dz_k)
                    for got, want in ((z[k], zk), (n[k], nk), (dz[k], dz_k),
                                      (dg[k], dg_k), (dbe[k], dbe_k),
                                      (dx[k], dx_k), (dw[k], dw_k), (db[k], db_k)):
                        assert got.tobytes() == want.tobytes()

    def test_gradients(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, g, b = rand(rng, 3, 6), rand(rng, 6), rand(rng, 6)
            seed = rand(rng, 3, 6)
            _, cache = dk.layernorm_forward(x, g, b)
            dx, dg, db = dk.layernorm_backward(cache, seed)

            loss = lambda: float((dk.layernorm_forward(x, g, b)[0] * seed).sum())
            assert_grads_close(dx, numeric_grad(lambda _: loss(), x), context="dx")
            assert_grads_close(dg, numeric_grad(lambda _: loss(), g), context="dg")
            assert_grads_close(db, numeric_grad(lambda _: loss(), b), context="db")


class TestActivations:
    def test_relu_values(self):
        y, _ = dk.relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(y, [0.0, 0.0, 2.0])

    def test_relu_tanh_sigmoid_gradients(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rand(rng, 5) + 0.05  # keep away from the relu kink
            seed = rand(rng, 5)
            for fwd, bwd in [(dk.relu_forward, dk.relu_backward),
                             (dk.tanh_forward, dk.tanh_backward),
                             (dk.sigmoid_forward, dk.sigmoid_backward)]:
                _, cache = fwd(x)
                dx = bwd(cache, seed)
                loss = lambda: float((fwd(x)[0] * seed).sum())
                assert_grads_close(dx, numeric_grad(lambda _: loss(), x),
                                   context=fwd.__name__)

    def test_mse(self):
        loss, dpred = dk.mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert loss == pytest.approx(2.5)
        assert np.allclose(dpred, [[1.0, 2.0]])


class TestGruCell:
    def test_zero_params_halve_hidden_state(self):
        rng = np.random.default_rng(4)
        params = {k: np.zeros_like(v) for k, v in dk.gru_init(rng, 3, 4).items()}
        h_prev = rand(rng, 2, 4)
        h, _ = dk.gru_cell_forward(params, rand(rng, 2, 3), h_prev)
        assert np.allclose(h, 0.5 * h_prev)

    def test_zero_everything_stays_zero(self):
        params = {k: np.zeros_like(v)
                  for k, v in dk.gru_init(np.random.default_rng(0), 3, 4).items()}
        h, _ = dk.gru_cell_forward(params, np.zeros((1, 3)), np.zeros((1, 4)))
        assert np.array_equal(h, np.zeros((1, 4)))

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(5)
        params = dk.gru_init(rng, 3, 4)
        h = np.zeros((2, 4))
        for _ in range(50):
            h, _ = dk.gru_cell_forward(params, 5.0 * rand(rng, 2, 3), h)
        assert np.abs(h).max() < 1.0

    def test_gradients_all_params_and_inputs(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            params = dk.gru_init(rng, 3, 4)
            x = rand(rng, 2, 3)
            h_prev = rand(rng, 2, 4) * 0.5
            seed = rand(rng, 2, 4)

            def loss():
                h, _ = dk.gru_cell_forward(params, x, h_prev)
                return float((h * seed).sum())

            _, cache = dk.gru_cell_forward(params, x, h_prev)
            dx, dh, grads = dk.gru_cell_backward(params, cache, seed)
            assert_grads_close(dx, numeric_grad(lambda _: loss(), x), context="dx")
            assert_grads_close(dh, numeric_grad(lambda _: loss(), h_prev),
                               context="dh_prev")
            for name in params:
                num = numeric_grad(lambda _: loss(), params[name])
                assert_grads_close(grads[name], num, context=f"{trial}:{name}")


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = dk.AdamState.for_params(params)
        dk.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_descent_on_quadratic(self):
        params = {"w": np.array([1.0])}
        state = dk.AdamState.for_params(params)
        dk.adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.05)
        assert abs(params["w"][0]) < 1.0

    def test_two_steps_match_hand_rolled_reference(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8  # adam_step fixes b1, b2, eps
        params = {"w": np.array([1.0])}
        state = dk.AdamState.for_params(params)

        # Hand-rolled reference, written out step by step.
        w = 1.0
        m = v = 0.0
        seq = []
        for t in (1, 2):
            g = 2.0 * w
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            seq.append(w)

        for expected in seq:
            dk.adam_step(params, {"w": 2.0 * params["w"]}, state, lr)
            assert params["w"][0] == pytest.approx(expected, abs=1e-12)


class TestSoftUpdate:
    def test_tau_one_copies(self):
        t = {"w": np.zeros(3)}
        s = {"w": np.array([1.0, 2.0, 3.0])}
        dk.soft_update(t, s, 1.0)
        assert np.array_equal(t["w"], s["w"])

    def test_tau_zero_keeps_target(self):
        t = {"w": np.array([5.0])}
        dk.soft_update(t, {"w": np.array([1.0])}, 0.0)
        assert t["w"][0] == 5.0

    def test_small_tau_worked_value(self):
        t = {"w": np.array([0.0])}
        dk.soft_update(t, {"w": np.array([1.0])}, 0.001)
        assert t["w"][0] == pytest.approx(0.001)

    def test_schema_mismatch(self):
        with pytest.raises(dk.ShapeError):
            dk.soft_update({"a": np.zeros(2)}, {"b": np.zeros(2)}, 0.5)

    def test_geometric_convergence(self):
        t = {"w": np.array([0.0])}
        s = {"w": np.array([1.0])}
        tau = 0.01
        errors = []
        for _ in range(5):
            dk.soft_update(t, s, tau)
            errors.append(abs(1.0 - t["w"][0]))
        for a, b in zip(errors, errors[1:]):
            assert b / a == pytest.approx(1.0 - tau, rel=1e-9)


class TestParamSet:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        tensors = {"actor/W1": rng.standard_normal((4, 3)),
                   "gru/bz": rng.standard_normal(8),
                   "adam/m/actor/W1": rng.standard_normal((4, 3))}
        ps = dk.ParamSet(tensors=tensors)
        path = str(tmp_path / "ckpt.npz")
        ps.save(path)
        loaded = dk.ParamSet.load(path)
        assert list(loaded.tensors) == list(ps.tensors)
        for name in tensors:
            assert loaded.tensors[name].tobytes() == tensors[name].tobytes()

    def test_version_guard(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, __version__=np.array("other", dtype=np.str_),
                 __order__=np.array([], dtype=np.str_))
        with pytest.raises(ValueError, match="version"):
            dk.ParamSet.load(path)


class TestHelpers:
    def test_clip_grads(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = dk.clip_grads(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float(np.square(g).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)

    def test_clip_grads_stacked_caps_each_group(self):
        grads = {"a": np.array([[3.0], [0.3]]), "b": np.array([[4.0], [0.4]])}
        norms = dk.clip_grads(grads, 1.0, stacked=True)
        assert norms == pytest.approx([5.0, 0.5])
        assert np.allclose(grads["a"], [[0.6], [0.3]])
        assert np.allclose(grads["b"], [[0.8], [0.4]])

    def test_deterministic_forward(self):
        rng = np.random.default_rng(8)
        params = dk.gru_init(rng, 3, 4)
        x, h = rng.standard_normal((2, 3)), rng.standard_normal((2, 4))
        a, _ = dk.gru_cell_forward(params, x, h)
        b, _ = dk.gru_cell_forward(params, x, h)
        assert a.tobytes() == b.tobytes()
