"""Feed-forward acoustic model over HMM unit states.

ReLU hidden layers, softmax output, trained with shuffled minibatch SGD
plus momentum on cross entropy with an l1 penalty on the weight matrices.
The training settings are the ``mlp_*`` fields of the pipeline's
configuration (:class:`~sublex.pipeline.PipelineConfig`), which
validates them; this module reads them by attribute.  Decoding uses
scaled log-likelihoods: log posterior minus log prior, substituted for
GMM emission scores in the Viterbi search.

The network reads each frame with ``context`` neighbours on each side,
edges replicated.  A training set keeps each utterance's edge-padded
frames end to end and reads every window through one strided view
(:class:`LabeledFrameSet`), so it holds frames, not (2*context+1)-frame
copies; the objective over the whole set runs in row blocks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TrainingDivergedError, open_input

logger = logging.getLogger(__name__)

# values in the widest layer of one block of :func:`full_objective`
# (512 KB of float64), so its temporaries do not grow with the set
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class MlpModel:
    """Network parameters: weights[l] maps layer l to l+1."""

    sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    context: int                   # frames of context on each side

    def __post_init__(self):
        if self.context < 0:
            raise DataError(f"negative context {self.context}")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (self.sizes[l], self.sizes[l + 1]):
                raise DataError(f"layer {l}: weight shape {w.shape} vs "
                                f"sizes {self.sizes}")
            if b.shape != (self.sizes[l + 1],):
                raise DataError(f"layer {l}: bias shape {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DataError(f"layer {l}: non-finite parameters")

    @property
    def n_outputs(self) -> int:
        return self.sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.sizes[0]


@dataclass(frozen=True)
class LabeledFrameSet:
    """Network inputs with unit-state labels and label priors.

    Input row i is ``windows[rows[i]]``.  :func:`build_frame_set` makes
    ``windows`` a read-only strided view whose rows overlap, so the set
    holds each frame once and a minibatch is one row gather.  Without
    ``rows``, row i of a plain (F, width) ``windows`` matrix is input i.
    """

    windows: np.ndarray    # (W, width) input windows
    labels: np.ndarray     # (F,) int
    priors: np.ndarray     # (S,) label relative frequencies
    rows: np.ndarray | None = None   # (F,) window of each input row

    def __post_init__(self):
        if self.rows is None:
            object.__setattr__(self, "rows", np.arange(len(self.windows)))
        if self.rows.shape != self.labels.shape:
            raise DataError("inputs/labels length mismatch")
        if self.labels.size and not (
                0 <= self.labels.min()
                and self.labels.max() < self.priors.shape[0]):
            raise DataError("label id out of prior range")
        if abs(float(self.priors.sum()) - 1.0) > 1e-8:
            raise DataError("priors do not sum to 1")

    @property
    def inputs(self) -> np.ndarray:
        """The (F, width) input matrix, copied out."""
        return self.windows[self.rows]


def _pad_into(out: np.ndarray, feats: np.ndarray, context: int) -> None:
    """Write ``feats`` into ``out``, which has 2*context more rows, with
    ``context`` copies of its first and last frame on either side."""
    T = len(feats)
    out[context:context + T] = feats
    if T:
        out[:context] = feats[0]
        out[context + T:] = feats[-1]


def _window_view(padded: np.ndarray, context: int) -> np.ndarray:
    """The view whose row p holds rows p .. p + 2*context of the
    C-contiguous ``padded`` side by side: one strided read, no copy.
    Its rows overlap, so it must not be written to.  numpy checks that
    the view stays inside ``padded``."""
    n, dim = padded.shape
    return np.ndarray((max(n - 2 * context, 0), (2 * context + 1) * dim),
                      padded.dtype, padded, 0, padded.strides)


def stack_context(features: np.ndarray, context: int) -> np.ndarray:
    """Concatenate 2*context+1 neighbouring frames per row, replicating
    the first and last frame at the edges.

    Row t is row t of the window view (:func:`_window_view`) of the
    edge-padded features, copied out.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DataError(f"expected a (frames, dim) matrix, got shape "
                        f"{feats.shape}")
    padded = np.empty((len(feats) + 2 * context, feats.shape[1]))
    _pad_into(padded, feats, context)
    return _window_view(padded, context).copy()


def build_frame_set(feature_list, label_list, context: int,
                    n_states: int) -> LabeledFrameSet:
    """The frame set of utterances' features and per-frame labels in
    0 .. n_states-1.  The utterances' edge-padded frames are laid end to
    end, so frame t of an utterance padded from row ``first`` on reads
    window ``first + t``, which holds none of another utterance."""
    feats = [np.asarray(f, dtype=np.float64) for f in feature_list]
    labels = [np.asarray(lab, dtype=np.int64) for lab in label_list]
    if not feats or len(feats) != len(labels):
        raise DataError(f"{len(labels)} label sequences for {len(feats)} "
                        "utterances")
    sizes = []
    for u, (f, lab) in enumerate(zip(feats, labels)):
        if lab.shape != (len(f),):
            raise DataError(f"utterance {u}: {lab.size} labels for "
                            f"{len(f)} frames")
        if lab.size and not (0 <= lab.min() and lab.max() < n_states):
            raise DataError(f"utterance {u}: label outside 0..{n_states - 1}"
                            f" ({lab.min()}..{lab.max()})")
        sizes.append(len(f) + 2 * context if len(f) else 0)
    padded = np.empty((sum(sizes), feats[0].shape[1]))
    rows, first = [], 0
    for f, size in zip(feats, sizes):
        _pad_into(padded[first:first + size], f, context)
        rows.append(first + np.arange(len(f)))
        first += size
    windows = _window_view(padded, context)
    windows.flags.writeable = False
    labels = np.concatenate(labels)
    counts = np.bincount(labels, minlength=n_states).astype(np.float64)
    return LabeledFrameSet(windows, labels, counts / counts.sum(),
                           np.concatenate(rows))


def init_mlp(sizes, context: int, seed: int) -> MlpModel:
    """Uniform init scaled by layer fan-in; biases start at zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(n_in)
        weights.append(rng.uniform(-bound, bound, size=(n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpModel(tuple(sizes), tuple(weights), tuple(biases), context)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _run_layers(weights, biases, x, dropout, rng):
    """The training pass: returns (posteriors, pre-activations,
    activations, dropout masks), every layer kept for :func:`_backprop`."""
    acts = [x]
    zs = []
    masks = []
    h = x
    n_layers = len(weights)
    for l in range(n_layers):
        z = h @ weights[l] + biases[l]
        zs.append(z)
        if l < n_layers - 1:
            h = np.maximum(z, 0.0)
            if dropout > 0.0:
                mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
                h = h * mask
            else:
                mask = None
            masks.append(mask)
            acts.append(h)
    return _softmax(zs[-1]), zs, acts, masks


def _backprop(weights, biases, x, y, l1, dropout=0.0, rng=None):
    """Mean cross entropy (plus l1 on weights) and its gradients."""
    post, zs, acts, masks = _run_layers(weights, biases, x, dropout, rng)
    B = post.shape[0]
    ce = -float(np.mean(np.log(np.maximum(post[np.arange(B), y], 1e-300))))
    delta = post.copy()
    delta[np.arange(B), y] -= 1.0
    delta /= B
    grads_w, grads_b = [], []
    for l in range(len(weights) - 1, -1, -1):
        gw = acts[l].T @ delta + l1 * np.sign(weights[l])
        gb = delta.sum(axis=0)
        grads_w.append(gw)
        grads_b.append(gb)
        if l > 0:
            back = (delta @ weights[l].T) * (zs[l - 1] > 0.0)
            if masks[l - 1] is not None:
                back = back * masks[l - 1]
            delta = back
    grads_w.reverse()
    grads_b.reverse()
    return ce, grads_w, grads_b


def _infer(weights, biases, x):
    """The inference pass: the posteriors of :func:`_run_layers` without
    dropout, from the same float operations, so the same bits, but
    keeping only the layer being computed."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ w
        z += b
        h = np.maximum(z, 0.0, out=z)
    z = h @ weights[-1]
    z += biases[-1]
    return _softmax(z)


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posteriors for a batch of stacked inputs, one row each, by the
    inference pass (:func:`_infer`: no dropout, no kept layers)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DataError(f"input shape {x.shape} is not (n, "
                        f"{model.input_dim})")
    return _infer(model.weights, model.biases, x)


def full_objective(weights, biases, inputs, labels, l1: float,
                   rows=None) -> float:
    """Mean cross entropy of the network ``weights``/``biases`` on a
    labelled set, plus ``l1`` times the weights' absolute sum; the
    posteriors come from the inference pass (:func:`_infer`).

    Input row i is ``inputs[rows[i]]``, or ``inputs[i]`` without
    ``rows``.  The rows run in near-equal blocks of about BLOCK_ELEMENTS
    values in the widest layer, so that no block is a lone row, which
    BLAS multiplies by another kernel.  A block's rows then have the
    bits of one product over all rows, except where OpenBLAS switches
    kernel for the large whole-set product too (seen for 2-4 and 12
    outputs), which can move a posterior by an ulp.
    """
    n = len(labels)
    widest = max(max(w.shape) for w in weights)
    n_blocks = max(1, -(-n // max(1, BLOCK_ELEMENTS // widest)))
    bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
    picked = np.empty(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        x = inputs[lo:hi] if rows is None else inputs[rows[lo:hi]]
        post = _infer(weights, biases, x)
        picked[lo:hi] = post[np.arange(hi - lo), labels[lo:hi]]
    ce = -float(np.mean(np.log(np.maximum(picked, 1e-300))))
    return ce + l1 * sum(float(np.abs(w).sum()) for w in weights)


def mlp_train(model: MlpModel, data: LabeledFrameSet, cfg, seed: int,
              dev: LabeledFrameSet | None = None):
    """Shuffled minibatch SGD with momentum on CE + l1, from ``model``.

    ``cfg`` supplies ``mlp_learning_rate``, ``mlp_momentum``,
    ``mlp_batch_size``, ``mlp_dropout``, ``mlp_l1`` and ``mlp_epochs``
    (a :class:`~sublex.pipeline.PipelineConfig`, which validates them).
    Deterministic given ``seed``.  Returns (trained model, trace) where
    the trace rows are (epoch, training objective, dev objective); row 0
    holds the objective at the initial point, and the dev column is NaN
    without a (non-empty) dev set.  The learning rate halves after two
    epochs without improvement of the dev objective (training objective
    when no dev set is given).  A non-finite loss raises
    :class:`TrainingDivergedError`.
    """
    n = len(data.labels)
    if n == 0:
        raise DataError("mlp_train: empty training set")
    if dev is not None and len(dev.labels) == 0:
        dev = None
    rng = np.random.default_rng(seed)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    lr, l1, batch = cfg.mlp_learning_rate, cfg.mlp_l1, cfg.mlp_batch_size

    def objective(d):
        return np.nan if d is None else full_objective(
            weights, biases, d.windows, d.labels, l1, d.rows)

    trace = [(0, objective(data), objective(dev))]
    best_sched = np.inf
    stall = 0
    for epoch in range(1, cfg.mlp_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            x, y = data.windows[data.rows[idx]], data.labels[idx]
            ce, gw, gb = _backprop(weights, biases, x, y, l1,
                                   cfg.mlp_dropout, rng)
            if not np.isfinite(ce):
                raise TrainingDivergedError(
                    f"non-finite batch loss at epoch {epoch} (lr={lr})")
            for l in range(len(weights)):
                vel_w[l] = cfg.mlp_momentum * vel_w[l] - lr * gw[l]
                vel_b[l] = cfg.mlp_momentum * vel_b[l] - lr * gb[l]
                weights[l] += vel_w[l]
                biases[l] += vel_b[l]
        train_loss = objective(data)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(
                f"non-finite training objective after epoch {epoch}")
        dloss = objective(dev)
        trace.append((epoch, train_loss, dloss))
        sched_metric = train_loss if np.isnan(dloss) else dloss
        if sched_metric < best_sched - 1e-12:
            best_sched = sched_metric
            stall = 0
        else:
            stall += 1
            if stall >= 2:
                lr *= 0.5
                stall = 0
                logger.info("epoch %d: plateau, halving lr to %g", epoch, lr)
    return MlpModel(model.sizes, tuple(weights), tuple(biases),
                    model.context), trace


def write_loss_trace(trace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss,dev_metric\n")
        for epoch, loss, dev in trace:
            fh.write(f"{epoch},{loss:.10g},{dev:.10g}\n")


def gradient_check(model: MlpModel, inputs: np.ndarray, labels: np.ndarray,
                   l1: float, n_params: int = 200, h: float = 1e-5,
                   seed: int = 0) -> float:
    """Backprop vs central finite differences on random parameters.

    Dropout is off and everything runs in double precision.  With l1 > 0,
    weights within 2h of zero are excluded (subgradient ambiguity).  The
    relative error is |a - b| / max(|a|, |b|, 1e-6).
    """
    rng = np.random.default_rng(seed)
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, gw, gb = _backprop(model.weights, model.biases, inputs, labels, l1)

    params = []
    for l, w in enumerate(model.weights):
        for flat in range(w.size):
            if l1 > 0 and abs(w.flat[flat]) <= 2 * h:
                continue
            params.append(("w", l, flat))
    for l, b in enumerate(model.biases):
        for flat in range(b.size):
            params.append(("b", l, flat))
    if len(params) > n_params:
        chosen = rng.choice(len(params), size=n_params, replace=False)
        params = [params[i] for i in sorted(chosen)]

    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    worst = 0.0
    for kind, l, flat in params:
        arr = weights[l] if kind == "w" else biases[l]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + h
        f_plus = full_objective(weights, biases, inputs, labels, l1)
        arr.flat[flat] = orig - h
        f_minus = full_objective(weights, biases, inputs, labels, l1)
        arr.flat[flat] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = (gw[l] if kind == "w" else gb[l]).flat[flat]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Hybrid scoring


def _log_priors(priors: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """log of the priors, floored and renormalized first."""
    priors = np.maximum(np.asarray(priors, dtype=np.float64), floor)
    return np.log(priors / priors.sum())


def scaled_loglik(posteriors: np.ndarray, priors: np.ndarray,
                  floor: float = 1e-8) -> np.ndarray:
    """log posterior minus log prior per state; priors are floored and
    renormalized first.  Drop-in emission surrogate for decoding."""
    post = np.maximum(np.asarray(posteriors, dtype=np.float64), 1e-300)
    return np.log(post) - _log_priors(priors, floor)


@dataclass(frozen=True)
class PosteriorScorer:
    """Emission scorer backed by network posteriors.

    Satisfies the same interface as AcousticModelSet: per-frame unit
    scores are scaled log-likelihoods (:func:`scaled_loglik`, whose log
    priors are computed once, in ``log_priors``), transitions come from
    the HMM.
    """

    model: MlpModel
    priors: np.ndarray
    stay_logprob: np.ndarray
    exit_logprob: np.ndarray
    log_priors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("priors", "stay_logprob", "exit_logprob"):
            if np.shape(getattr(self, name)) != (self.n_units,):
                raise DataError(f"{name} needs one entry per network output "
                                f"({self.n_units})")
        object.__setattr__(self, "log_priors", _log_priors(self.priors))

    @property
    def n_units(self) -> int:
        return self.model.n_outputs

    def frame_scores(self, features: np.ndarray) -> np.ndarray:
        stacked = stack_context(features, self.model.context)
        post = mlp_forward(self.model, stacked)
        return np.log(np.maximum(post, 1e-300)) - self.log_priors


# ---------------------------------------------------------------------------
# Checkpoint I/O: text header, little-endian float64 weight blob


def save_mlp(model: MlpModel, priors: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"sublex-mlp 1\n")
        fh.write(f"sizes {' '.join(str(s) for s in model.sizes)}\n"
                 .encode("ascii"))
        fh.write(f"context {model.context}\n".encode("ascii"))
        fh.write(f"n_priors {len(priors)}\n".encode("ascii"))
        fh.write(b"data\n")
        for w, b in zip(model.weights, model.biases):
            fh.write(np.asarray(w, "<f8").tobytes())
            fh.write(np.asarray(b, "<f8").tobytes())
        fh.write(np.asarray(priors, "<f8").tobytes())


def load_mlp(path) -> tuple[MlpModel, np.ndarray]:
    with open_input(path, "network checkpoint", binary=True) as fh:
        header: dict[str, str] = {}
        magic = fh.readline().strip()
        if magic != b"sublex-mlp 1":
            raise DataError(f"{path}: bad checkpoint magic {magic!r}")
        while True:
            line = fh.readline()
            if not line:
                raise DataError(f"{path}: truncated header")
            line = line.strip()
            if line == b"data":
                break
            key, _, val = line.decode("ascii", "replace").partition(" ")
            header[key] = val
        try:
            sizes = tuple(int(t) for t in header["sizes"].split())
            context = int(header["context"])
            n_priors = int(header["n_priors"])
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
        if sizes[-1:] != (n_priors,):
            raise DataError(f"{path}: {n_priors} priors for network sizes "
                            f"{sizes}")

        def floats(n):
            blob = fh.read(8 * n)
            if n < 0 or len(blob) != 8 * n:
                raise DataError(f"{path}: truncated checkpoint data")
            return np.frombuffer(blob, dtype="<f8").copy()

        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            weights.append(floats(n_in * n_out).reshape(n_in, n_out))
            biases.append(floats(n_out))
        priors = floats(n_priors)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after checkpoint data")
    return MlpModel(sizes, tuple(weights), tuple(biases), context), priors
