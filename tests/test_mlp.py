import logging
import tracemalloc

import numpy as np
import pytest

from sublex import mlp
from sublex.acoustic import make_transitions
from sublex.decoder import decode_continuous, decode_isolated
from sublex.errors import DataError, NoPathError, TrainingDivergedError
from sublex.hmm import Dictionary, free_loop_decode
from sublex.mlp import (LabeledFrameSet, PosteriorScorer, build_frame_set,
                        full_objective, gradient_check, init_mlp, load_mlp,
                        mlp_forward, mlp_train, save_mlp, scaled_loglik,
                        stack_context)
from sublex.pipeline import PipelineConfig

from conftest import random_model_set


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


def frames(seed, n):
    """n random 4-dim frames, labelled 0-2 by the signs of two inputs."""
    x = np.random.default_rng(seed).normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(np.int64) + (x[:, 1] > 0)
    return LabeledFrameSet(x, y, np.full(3, 1 / 3))


def train(lr=0.3, epochs=6, seed=7, dev=None, batch=16):
    cfg = PipelineConfig(mlp_learning_rate=lr, mlp_epochs=epochs,
                         mlp_batch_size=batch, mlp_hidden=(8,))
    return mlp_train(init_mlp((4, 8, 3), 0, 0), frames(1, 60), cfg, seed,
                     dev=dev)


def halvings(caplog):
    return [r.args[0] for r in caplog.records if "halving" in r.msg]


class TestMlpTrain:
    def test_same_seed_same_network(self):
        dev = frames(2, 30)
        (a, trace_a), (b, trace_b) = train(dev=dev), train(dev=dev)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(x, y)
        assert trace_a == trace_b
        assert train(seed=8, dev=dev)[1] != trace_a

    def test_trace_starts_at_the_initial_objective(self):
        dev = frames(2, 30)
        _, trace = train(dev=dev)
        assert len(trace) == 6 + 1
        assert [row[0] for row in trace] == list(range(7))
        init = init_mlp((4, 8, 3), 0, 0)
        data = frames(1, 60)
        l1 = PipelineConfig().mlp_l1
        assert trace[0] == (
            0, full_objective(init.weights, init.biases, data.inputs,
                              data.labels, l1),
            full_objective(init.weights, init.biases, dev.inputs,
                           dev.labels, l1))

    @pytest.mark.parametrize("dev", [None, frames(2, 0), frames(2, 30)],
                             ids=["none", "empty", "dev"])
    def test_schedule_follows_the_dev_loss_else_the_training_loss(
            self, dev, caplog):
        with caplog.at_level(logging.INFO, logger="sublex.mlp"):
            _, trace = train(lr=1.0, epochs=12, dev=dev)
        column = 2 if dev is not None and dev.inputs.size else 1
        assert np.isnan([row[2] for row in trace]).all() == (column == 1)
        best, stall, expected = np.inf, 0, []
        for row in trace[1:]:
            if row[column] < best - 1e-12:
                best, stall = row[column], 0
            else:
                stall += 1
                if stall == 2:
                    expected.append(row[0])
                    stall = 0
        assert len(expected) >= 3
        assert halvings(caplog) == expected

    def test_lr_halves_after_two_stalled_epochs(self, caplog):
        # a step far below the weights' precision leaves the loss fixed
        with caplog.at_level(logging.INFO, logger="sublex.mlp"):
            _, trace = train(lr=1e-30, epochs=5)
        assert len({row[1] for row in trace}) == 1
        assert halvings(caplog) == [3, 5]
        assert "halving lr to 5e-31" in caplog.messages[0]

    # with 60 frames, a batch of 128 makes one step per epoch, so the
    # divergence shows first in the epoch's training objective
    @pytest.mark.parametrize("batch", [16, 128])
    def test_huge_learning_rate_diverges(self, batch):
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(lr=1e300, batch=batch)

    def test_empty_training_set(self):
        cfg = PipelineConfig(mlp_hidden=(8,))
        with pytest.raises(DataError, match="empty"):
            mlp_train(init_mlp((4, 8, 3), 0, 0), frames(1, 0), cfg, 0)


class TestMlpForward:
    @pytest.mark.parametrize("shape", [(5,), (2, 5), (2, 3, 4)])
    def test_input_must_be_a_batch_of_model_width(self, shape):
        with pytest.raises(DataError, match="input shape"):
            mlp_forward(init_mlp((4, 3), 0, 0), np.zeros(shape))

    def test_rows_are_posteriors(self):
        post = mlp_forward(init_mlp((4, 8, 3), 0, 0), frames(1, 5).inputs)
        assert post.shape == (5, 3)
        np.testing.assert_allclose(post.sum(axis=1), 1.0)


class TestInferencePass:
    """``mlp_forward`` and ``full_objective`` run the inference pass: the
    bits of the training pass without dropout, holding no layer that
    the next one has been computed from."""

    @pytest.mark.parametrize("hidden", [(5,), (7, 4), (6, 5, 4)])
    @pytest.mark.parametrize("l1", [0.0, 1e-6])
    def test_equals_training_pass(self, hidden, l1):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            net = perturbed_net((6, *hidden, 3), 0, seed=seed)
            x = rng.normal(size=(40, 6)) * 2
            labels = rng.integers(0, 3, size=40)
            post = mlp._run_layers(net.weights, net.biases, x, 0.0, None)[0]
            assert mlp_forward(net, x).tobytes() == post.tobytes()
            ce = -float(np.mean(np.log(
                np.maximum(post[np.arange(40), labels], 1e-300))))
            expect = ce + l1 * sum(float(np.abs(w).sum())
                                   for w in net.weights)
            assert full_objective(net.weights, net.biases, x, labels,
                                  l1) == expect

    def test_full_objective_peak_memory(self):
        """Blocks of 1000 rows hold two (1000, 64) hidden layers, 1 MiB
        together; the whole set at once took 4.9 MiB, and keeping every
        pre-activation and activation 11.1 MiB."""
        rng = np.random.default_rng(0)
        net = init_mlp((22, 64, 64, 8), 0, 0)
        x = rng.normal(size=(5000, 22))
        labels = rng.integers(0, 8, size=5000)
        tracemalloc.start()
        try:
            full_objective(net.weights, net.biases, x, labels, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2 ** 20


class TestPosteriorScorer:
    @pytest.mark.parametrize("priors", [
        [0.4, 0.3, 0.2, 0.1], [0.5, 1e-12, 0.0, 0.5 - 1e-12],
        [3.0, 1e-9, 2.0, 5.0]])
    def test_frame_scores_are_scaled_logliks(self, priors):
        """The cached log priors give the bits of
        :func:`scaled_loglik`, priors below its 1e-8 floor included."""
        net = perturbed_net((6, 8, 4), 1, seed=2)
        priors = np.array(priors)
        stay, exit_ = make_transitions(0.6, 4)
        scorer = PosteriorScorer(net, priors, stay, exit_)
        x = np.random.default_rng(4).normal(size=(7, 2))
        post = mlp_forward(net, stack_context(x, 1))
        expect = scaled_loglik(post, priors)
        got = scorer.frame_scores(x)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()
        floored = np.maximum(priors, 1e-8)
        by_hand = (np.log(np.maximum(post, 1e-300))
                   - np.log(floored / floored.sum()))
        assert got.tobytes() == by_hand.tobytes()
        assert "log_priors" not in repr(scorer)

    @pytest.mark.parametrize("arg, size", [(1, 3), (2, 5), (3, 3)])
    def test_arrays_must_match_the_outputs(self, arg, size):
        net = init_mlp((2, 3, 4), 0, 0)
        args = [net, np.full(4, 0.25), *make_transitions(0.6, 4)]
        args[arg] = args[arg][:1].repeat(size)
        with pytest.raises(DataError, match=r"network output \(4\)"):
            PosteriorScorer(*args)


def test_negative_context_is_rejected():
    with pytest.raises(DataError, match="negative context -1"):
        init_mlp((2, 4, 3), -1, 0)


class TestScorerInput:
    """Both scorers reject features that are not a matrix, and score a
    zero-frame matrix to (0, units), on which isolated and continuous
    decoding and the free unit loop find no path."""

    @pytest.fixture(params=["gmm", "network"])
    def scorer(self, request):
        if request.param == "gmm":
            return random_model_set(np.random.default_rng(0), 3, 2)
        return PosteriorScorer(init_mlp((10, 4, 3), 2, 0), np.full(3, 1 / 3),
                               *make_transitions(0.6, 3))

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2)])
    def test_not_a_matrix(self, scorer, shape):
        with pytest.raises(DataError, match="matrix"):
            scorer.frame_scores(np.ones(shape))

    def test_zero_frames(self, scorer):
        assert scorer.frame_scores(np.ones((0, 2))).shape == (0, 3)
        with pytest.raises(NoPathError):
            decode_isolated(np.ones((0, 2)), Dictionary({"A": (0,)}), scorer)

    def test_zero_frames_in_the_word_and_unit_loops(self, scorer):
        with pytest.raises(NoPathError):
            decode_continuous(np.ones((0, 2)), Dictionary({"A": (0,)}),
                              scorer)
        with pytest.raises(NoPathError):
            free_loop_decode(scorer.frame_scores(np.ones((0, 2))), scorer)


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


def stack_gather(feats, context):
    """The index-gather formulation: a (T, 2*context+1) array of frame
    indices, clipped to the utterance, gathers every window at once."""
    T = feats.shape[0]
    idx = np.arange(T)[:, None] + np.arange(-context, context + 1)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, T - 1, out=idx)
    return feats[idx].reshape(T, idx.shape[1] * feats.shape[1])


class TestStackContext:
    @pytest.mark.parametrize("dim", [1, 2, 13])
    @pytest.mark.parametrize("context", [0, 1, 5])
    def test_equals_index_gather(self, context, dim):
        """The padded strided copy holds the bits of the index gather at
        every length, none and shorter than the window included."""
        for T in sorted({0, 1, 2, context, context + 1, 20}):
            feats = np.random.default_rng(T).normal(size=(T, dim))
            got = stack_context(feats, context)
            expect = stack_gather(feats, context)
            assert got.shape == expect.shape == (T, dim * (2 * context + 1))
            assert got.tobytes() == expect.tobytes()
            # a copy: rows do not overlap, nor share the features' memory
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, feats)

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


def utterances(seed, lengths, dim=3):
    rng = np.random.default_rng(seed)
    return ([rng.normal(size=(T, dim)) for T in lengths],
            [rng.integers(0, 4, size=T) for T in lengths])


class TestLazyFrameSet:
    """The frame set keeps each frame once and reads its windows through
    a strided view; every value it feeds the network has the bits of the
    stacked matrix."""

    @pytest.mark.parametrize("context", [0, 1, 5])
    def test_rows_are_the_stacked_windows(self, context):
        """Each utterance's rows equal its own stacked windows; with
        distinct frames that shows no window reads a neighbour."""
        lengths = [4, 1, 0, 7, 1, 0, 2, 12]
        feats, labels = utterances(context, lengths)
        data = build_frame_set(feats, labels, context, 4)
        assert not data.windows.flags.writeable
        assert data.inputs.tobytes() == np.vstack(
            [stack_context(f, context) for f in feats]).tobytes()
        ends = np.cumsum(lengths)
        for f, lab, end in zip(feats, labels, ends):
            rows = data.rows[end - len(f):end]
            assert (data.windows[rows].tobytes()
                    == stack_context(f, context).tobytes())
            np.testing.assert_array_equal(data.labels[end - len(f):end], lab)
        # every frame once, with 2*context padding rows per utterance
        padded = sum(T + 2 * context for T in lengths if T)
        assert len(data.windows) == padded - 2 * context

    @pytest.mark.parametrize("lengths, labels, match", [
        ([4, 3], [[0] * 5, [0] * 2], "utterance 0: 5 labels for 4 frames"),
        ([4, 3], [[0] * 4, [1, -1, 2]], r"utterance 1: label outside 0\.\.3"),
        ([2, 3], [[0, 9], [1] * 3], r"utterance 0: label outside 0\.\.3"),
        ([2, 3], [[0, 1]], "1 label sequences for 2 utterances"),
        ([], [], "0 label sequences for 0 utterances"),
    ])
    def test_labels_must_fit_each_utterance(self, lengths, labels, match):
        feats, _ = utterances(0, lengths)
        with pytest.raises(DataError, match=match):
            build_frame_set(feats, labels, 1, 4)

    @pytest.mark.parametrize("rows, labels, match", [
        ([0, 1], [0, 1, 2], "length mismatch"),
        ([0, 1], [0, -1], "label id out of prior range"),
    ])
    def test_rows_and_labels_are_checked(self, rows, labels, match):
        with pytest.raises(DataError, match=match):
            LabeledFrameSet(np.zeros((5, 2)), np.array(labels),
                            np.full(3, 1 / 3), np.array(rows))

    @staticmethod
    def blocked_and_whole(monkeypatch, n, outputs):
        """The objective and posteriors of ``n`` rows of a (22, 64, 64,
        ``outputs``) network, in blocks of at most 1024 rows and in one
        block, and the number of blocks run."""
        feats, labels = utterances(n, [n // 2, n - n // 2], dim=2)
        data = build_frame_set(feats, [lab % outputs for lab in labels], 5,
                               outputs)
        net = perturbed_net((22, 64, 64, outputs), 5, seed=3)
        args = (net.weights, net.biases, data.windows, data.labels, 1e-6,
                data.rows)
        infer = mlp._infer
        blocks = []
        monkeypatch.setattr(mlp, "_infer",
                            lambda *a: blocks.append(infer(*a)) or blocks[-1])
        monkeypatch.setattr(mlp, "BLOCK_ELEMENTS", 1 << 30)
        whole = full_objective(*args)
        assert full_objective(net.weights, net.biases, data.inputs,
                              data.labels, 1e-6) == whole
        whole_post = blocks.pop()
        blocks.clear()
        monkeypatch.setattr(mlp, "BLOCK_ELEMENTS", 1024 * 64)
        blocked = full_objective(*args)
        return blocked, whole, np.vstack(blocks), whole_post, len(blocks)

    @pytest.mark.parametrize("outputs", [8, 16])
    @pytest.mark.parametrize("n", [3073, 4095, 8000])
    def test_blocked_objective_is_exact(self, monkeypatch, n, outputs):
        """Blocks of near-equal size, none a lone row, give the bits of
        one product over all rows; 3073 rows make 4 blocks of 768 or
        769, where blocks of 1024 would leave a lone row, which BLAS
        computes by another kernel."""
        blocked, whole, post, whole_post, n_blocks = self.blocked_and_whole(
            monkeypatch, n, outputs)
        assert n_blocks == -(-n // 1024) > 3
        assert post.tobytes() == whole_post.tobytes()
        assert blocked == whole

    @pytest.mark.parametrize("outputs", [3, 12])
    def test_blocked_objective_within_an_ulp(self, monkeypatch, outputs):
        """OpenBLAS computes some narrow products of more than about
        10^6 multiply-adds by another kernel than smaller ones, so for
        these output widths the whole-set posteriors can differ from
        the blocked ones in the last bit."""
        eps = np.finfo(np.float64).eps
        for n in (3073, 8000):
            blocked, whole, post, whole_post, _ = self.blocked_and_whole(
                monkeypatch, n, outputs)
            assert np.abs(post - whole_post).max() <= 4 * eps
            assert abs(blocked - whole) <= 4 * eps * abs(whole)

    def test_training_on_the_lazy_set_equals_the_stacked_matrix(self):
        feats, labels = utterances(1, [40, 1, 0, 25, 70])
        lazy = build_frame_set(feats, labels, 2, 4)
        dev = build_frame_set(*utterances(2, [9, 30]), 2, 4)
        cfg = PipelineConfig(mlp_epochs=3, mlp_batch_size=16,
                             mlp_hidden=(8,))
        init = init_mlp((15, 8, 4), 2, 0)
        got, got_trace = mlp_train(init, lazy, cfg, 5, dev=dev)
        train, dev = [LabeledFrameSet(d.inputs, d.labels, d.priors)
                      for d in (lazy, dev)]
        expect, expect_trace = mlp_train(init, train, cfg, 5, dev=dev)
        assert got_trace == expect_trace
        for a, b in zip(got.weights + got.biases,
                        expect.weights + expect.biases):
            assert a.tobytes() == b.tobytes()

    def test_memory_is_the_frames(self):
        """Building a 20 000-frame, 13-dim set at context 5 and taking
        its objective stay within 2 x the frames' 8·F·D bytes; the
        stacked matrix alone is 11 x."""
        feats, labels = utterances(3, [500] * 40, dim=13)
        frames_bytes = 8 * 20000 * 13
        net = init_mlp((143, 64, 16), 5, 0)
        tracemalloc.start()
        try:
            data = build_frame_set(feats, labels, 5, 16)
            full_objective(net.weights, net.biases, data.windows,
                           data.labels, 1e-6, data.rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * frames_bytes
