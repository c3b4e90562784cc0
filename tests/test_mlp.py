import numpy as np
import pytest

from sublex import mlp
from sublex.mlp import (build_frame_set, gradient_check, init_mlp, load_mlp,
                        save_mlp, stack_context)


def perturbed_net(sizes, context, seed):
    """A network whose weights are well away from zero, so the l1 term
    is differentiable at every checked weight."""
    net = init_mlp(sizes, context, seed)
    rng = np.random.default_rng(seed)
    weights = tuple(w + np.sign(w) * 0.05 + rng.normal(0, 0.1, w.shape)
                    for w in net.weights)
    biases = tuple(rng.normal(0, 0.1, b.shape) for b in net.biases)
    return type(net)(net.sizes, weights, biases, context)


class TestGradientCheck:
    @pytest.mark.parametrize("l1", [0.0, 1e-3])
    def test_backprop_matches_finite_differences(self, l1):
        rng = np.random.default_rng(4)
        net = perturbed_net((6, 5, 4, 3), 0, seed=1)
        inputs = rng.normal(size=(25, 6))
        labels = rng.integers(0, 3, size=25)
        assert gradient_check(net, inputs, labels, l1=l1) <= 1e-6

    def test_detects_a_wrong_gradient(self, monkeypatch):
        # the check is only worth something if it can fail
        rng = np.random.default_rng(5)
        net = perturbed_net((4, 3, 2), 0, seed=2)
        inputs = rng.normal(size=(10, 4))
        labels = rng.integers(0, 2, size=10)
        right = mlp._backprop

        def off_by_one_percent(*args, **kwargs):
            loss, gw, gb = right(*args, **kwargs)
            return loss, [g * 1.01 for g in gw], gb

        monkeypatch.setattr(mlp, "_backprop", off_by_one_percent)
        assert gradient_check(net, inputs, labels, l1=0.0) > 5e-3


class TestCheckpointRoundTrip:
    def test_exact(self, tmp_path):
        net = perturbed_net((7, 5, 4), 3, seed=3)
        priors = np.random.default_rng(6).dirichlet(np.ones(4))
        save_mlp(net, priors, tmp_path / "net.ckpt")
        again, again_priors = load_mlp(tmp_path / "net.ckpt")
        assert again.sizes == net.sizes and again.context == net.context
        for a, b in zip(again.weights + again.biases,
                        net.weights + net.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(again_priors, priors)
        save_mlp(again, again_priors, tmp_path / "again.ckpt")
        assert ((tmp_path / "again.ckpt").read_bytes()
                == (tmp_path / "net.ckpt").read_bytes())


def stack_reference(feats, context):
    """Row t holds frames t-context .. t+context, edges replicated."""
    T = feats.shape[0]
    rows = []
    for t in range(T):
        rows.append(np.concatenate(
            [feats[min(max(t + k, 0), T - 1)]
             for k in range(-context, context + 1)]))
    return np.array(rows)


class TestStackContext:
    @pytest.mark.parametrize("T", [1, 2, 7])
    @pytest.mark.parametrize("context", range(7))
    def test_matches_per_offset_reference(self, T, context):
        feats = np.random.default_rng(T * 10 + context).normal(size=(T, 3))
        got = stack_context(feats, context)
        assert got.shape == (T, 3 * (2 * context + 1))
        np.testing.assert_array_equal(got, stack_reference(feats, context))

    def test_frame_set_concatenates_utterances(self):
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(4, 2)), rng.normal(size=(3, 2))]
        labels = [np.array([0, 0, 1, 1]), np.array([2, 2, 2])]
        data = build_frame_set(feats, labels, 1, 4)
        np.testing.assert_array_equal(
            data.inputs, np.vstack([stack_reference(f, 1) for f in feats]))
        np.testing.assert_array_equal(data.priors, [2 / 7, 2 / 7, 3 / 7, 0])
