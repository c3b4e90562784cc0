"""Feed-forward acoustic model over HMM unit states.

ReLU hidden layers, softmax output, trained with shuffled minibatch SGD
plus momentum on cross entropy with an l1 penalty on the weight matrices.
Decoding uses scaled log-likelihoods: log posterior minus log prior,
substituted for GMM emission scores in the Viterbi search.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingDivergedError, open_input

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MlpModel:
    """Network parameters: weights[l] maps layer l to l+1."""

    sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    context: int                   # frames of context on each side

    def __post_init__(self):
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
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    batch_size: int = 128
    dropout: float = 0.5
    l1: float = 1e-6
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError("dropout must be in [0, 1)")
        if self.l1 < 0:
            raise DataError("l1 coefficient must be >= 0")


@dataclass(frozen=True)
class LabeledFrameSet:
    """Context-stacked inputs with unit-state labels and label priors."""

    inputs: np.ndarray     # (F, dim * (2*context + 1))
    labels: np.ndarray     # (F,) int
    priors: np.ndarray     # (S,) label relative frequencies

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise DataError("inputs/labels length mismatch")
        if self.labels.size and int(self.labels.max()) >= self.priors.shape[0]:
            raise DataError("label id out of prior range")
        if abs(float(self.priors.sum()) - 1.0) > 1e-8:
            raise DataError("priors do not sum to 1")


def stack_context(features: np.ndarray, context: int) -> np.ndarray:
    """Concatenate 2*context+1 neighbouring frames per row, replicating
    the first and last frame at the edges."""
    feats = np.asarray(features, dtype=np.float64)
    T = feats.shape[0]
    idx = np.clip(np.arange(T)[:, None] + np.arange(-context, context + 1),
                  0, T - 1)
    return feats[idx].reshape(T, idx.shape[1] * feats.shape[1])


def build_frame_set(feature_list, label_list, context: int,
                    n_states: int) -> LabeledFrameSet:
    inputs = np.vstack([stack_context(f, context) for f in feature_list])
    labels = np.concatenate([np.asarray(l, dtype=np.int64)
                             for l in label_list])
    counts = np.bincount(labels, minlength=n_states).astype(np.float64)
    return LabeledFrameSet(inputs, labels, counts / counts.sum())


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
    """Returns (posteriors, pre-activations, activations, dropout masks)."""
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


def mlp_forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Posterior vector(s) for one stacked input or a batch of them; the
    pass is deterministic (no dropout)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.shape[1] != model.input_dim:
        raise DataError(f"input dim {batch.shape[1]} != model input "
                        f"{model.input_dim}")
    post, _, _, _ = _run_layers(model.weights, model.biases, batch, 0.0,
                                None)
    return post[0] if single else post


def full_objective(model: MlpModel, inputs, labels, l1: float) -> float:
    post, _, _, _ = _run_layers(model.weights, model.biases, inputs, 0.0,
                                None)
    ce = -float(np.mean(np.log(
        np.maximum(post[np.arange(len(labels)), labels], 1e-300))))
    return ce + l1 * sum(float(np.abs(w).sum()) for w in model.weights)


def mlp_train(model: MlpModel, data: LabeledFrameSet, cfg: TrainConfig,
              dev: LabeledFrameSet | None = None):
    """Shuffled minibatch SGD with momentum on CE + l1.

    Deterministic given the config seed.  Returns (trained model, trace)
    where the trace rows are (epoch, training objective, dev objective);
    row 0 holds the objective at the initial point.  The learning rate
    halves after two epochs without improvement of the dev objective
    (training objective when no dev set is given).  A non-finite loss
    raises :class:`TrainingDivergedError`.
    """
    if data.inputs.shape[0] == 0:
        raise DataError("mlp_train: empty training set")
    rng = np.random.default_rng(cfg.seed)
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    lr = cfg.learning_rate

    def snapshot():
        return MlpModel(model.sizes, tuple(w.copy() for w in weights),
                        tuple(b.copy() for b in biases), model.context)

    def dev_obj(m):
        if dev is None or dev.inputs.shape[0] == 0:
            return float("nan")
        return full_objective(m, dev.inputs, dev.labels, cfg.l1)

    current = snapshot()
    trace = [(0, full_objective(current, data.inputs, data.labels, cfg.l1),
              dev_obj(current))]
    n = data.inputs.shape[0]
    best_sched = np.inf
    stall = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, y = data.inputs[idx], data.labels[idx]
            ce, gw, gb = _backprop(weights, biases, x, y, cfg.l1,
                                   cfg.dropout, rng)
            if not np.isfinite(ce):
                raise TrainingDivergedError(
                    f"non-finite batch loss at epoch {epoch} (lr={lr})")
            for l in range(len(weights)):
                vel_w[l] = cfg.momentum * vel_w[l] - lr * gw[l]
                vel_b[l] = cfg.momentum * vel_b[l] - lr * gb[l]
                weights[l] += vel_w[l]
                biases[l] += vel_b[l]
        current = snapshot()
        train_loss = full_objective(current, data.inputs, data.labels, cfg.l1)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(
                f"non-finite training objective after epoch {epoch}")
        dloss = dev_obj(current)
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
    return snapshot(), trace


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

    def objective():
        m = MlpModel(model.sizes, tuple(weights), tuple(biases),
                     model.context)
        return full_objective(m, inputs, labels, l1)

    worst = 0.0
    for kind, l, flat in params:
        arr = weights[l] if kind == "w" else biases[l]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + h
        f_plus = objective()
        arr.flat[flat] = orig - h
        f_minus = objective()
        arr.flat[flat] = orig
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = (gw[l] if kind == "w" else gb[l]).flat[flat]
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Hybrid scoring


def scaled_loglik(posteriors: np.ndarray, priors: np.ndarray,
                  floor: float = 1e-8) -> np.ndarray:
    """log posterior minus log prior per state; priors are floored and
    renormalized first.  Drop-in emission surrogate for decoding."""
    priors = np.maximum(np.asarray(priors, dtype=np.float64), floor)
    priors = priors / priors.sum()
    post = np.maximum(np.asarray(posteriors, dtype=np.float64), 1e-300)
    return np.log(post) - np.log(priors)


@dataclass(frozen=True)
class PosteriorScorer:
    """Emission scorer backed by network posteriors.

    Satisfies the same interface as AcousticModelSet: per-frame unit
    scores are scaled log-likelihoods, transitions come from the HMM.
    """

    model: MlpModel
    priors: np.ndarray
    stay_logprob: np.ndarray
    exit_logprob: np.ndarray

    @property
    def n_units(self) -> int:
        return self.model.n_outputs

    def frame_scores(self, features: np.ndarray) -> np.ndarray:
        stacked = stack_context(features, self.model.context)
        post = mlp_forward(self.model, stacked)
        return scaled_loglik(post, self.priors)


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
            fh.write(struct.pack(f"<{w.size}d", *w.ravel()))
            fh.write(struct.pack(f"<{b.size}d", *b.ravel()))
        fh.write(struct.pack(f"<{len(priors)}d", *np.asarray(priors)))


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
