"""Acoustic unit models: LBG clustering, diagonal GMMs, EM, mixture doubling.

Every acoustic unit is a single HMM state whose emission is a diagonal
covariance GMM.  Model objects are immutable; re-estimation returns new
objects.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericError, open_input

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)

# fraction of total responsibility below which a component is considered
# starved and reset to a perturbed copy of the heaviest component
STARVE_FRACTION = 1e-6

# keep stay/exit probabilities away from 0 and 1 so log costs stay finite
TRANS_FLOOR = 1e-4


def _log_const(var: np.ndarray) -> float:
    return -0.5 * (var.shape[0] * LOG_2PI + float(np.sum(np.log(var))))


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance and a cached log normalizer."""

    mean: np.ndarray
    var: np.ndarray
    log_const: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))
        if np.any(self.var <= 0):
            raise DataError("non-positive variance component")
        if self.log_const is None:
            object.__setattr__(self, "log_const", _log_const(self.var))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density at one vector or at each row of a frame matrix."""
        x = np.asarray(x, dtype=np.float64)
        quad = np.sum((x - self.mean) ** 2 / self.var, axis=-1)
        return self.log_const - 0.5 * quad


@dataclass(frozen=True)
class GmmEmission:
    """Mixture of diagonal Gaussians with normalized weights."""

    weights: np.ndarray
    components: tuple[DiagGaussian, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise DataError("GMM needs at least one component")
        if self.weights.shape != (len(self.components),):
            raise DataError("weight/component count mismatch")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-10:
            raise DataError("GMM weights do not sum to 1")
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise DataError("GMM components disagree on dimensionality")

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def component_logpdfs(self, frames: np.ndarray) -> np.ndarray:
        """(frames, components) matrix of weighted component log densities."""
        frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
        out = np.empty((frames.shape[0], self.n_components))
        for k, comp in enumerate(self.components):
            out[:, k] = comp.logpdf(frames)
        with np.errstate(divide="ignore"):
            return out + np.log(self.weights)


def gmm_logpdf(gmm: GmmEmission, x: np.ndarray) -> float:
    """log sum_k w_k N(x; mu_k, diag var_k), log-sum-exp stabilized."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != gmm.dim:
        raise DataError(f"expected a vector of dim {gmm.dim}, "
                        f"got shape {x.shape}")
    return float(_logsumexp_rows(gmm.component_logpdfs(x[None, :]))[0])


def gmm_frame_logpdf(gmm: GmmEmission, frames: np.ndarray) -> np.ndarray:
    """Vectorized gmm_logpdf over the rows of a frame matrix."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != gmm.dim:
        raise DataError(f"expected (frames, {gmm.dim}) matrix, "
                        f"got shape {frames.shape}")
    return _logsumexp_rows(gmm.component_logpdfs(frames))


def _logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    peak = np.max(mat, axis=1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak[:, 0] + np.log(np.sum(np.exp(mat - peak), axis=1))


@dataclass(frozen=True)
class AcousticModelSet:
    """N single-state unit models plus per-unit stay/exit log probabilities."""

    units: tuple[GmmEmission, ...]
    stay_logprob: np.ndarray
    exit_logprob: np.ndarray
    var_floor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "stay_logprob",
                           np.asarray(self.stay_logprob, dtype=np.float64))
        object.__setattr__(self, "exit_logprob",
                           np.asarray(self.exit_logprob, dtype=np.float64))
        object.__setattr__(self, "var_floor",
                           np.asarray(self.var_floor, dtype=np.float64))
        n = len(self.units)
        if n < 1:
            raise DataError("model set needs at least one unit")
        if self.stay_logprob.shape != (n,) or self.exit_logprob.shape != (n,):
            raise DataError("transition array shape mismatch")
        total = np.exp(self.stay_logprob) + np.exp(self.exit_logprob)
        if np.any(np.abs(total - 1.0) > 1e-10):
            raise DataError("stay+exit probabilities do not sum to 1")

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def dim(self) -> int:
        return self.units[0].dim

    def frame_scores(self, features: np.ndarray) -> np.ndarray:
        """(frames, units) emission log densities; the scorer interface."""
        features = np.asarray(features, dtype=np.float64)
        out = np.empty((features.shape[0], self.n_units))
        for n, gmm in enumerate(self.units):
            out[:, n] = gmm_frame_logpdf(gmm, features)
        return out


def make_transitions(stay_prob: float | np.ndarray, n_units: int):
    p = np.clip(np.broadcast_to(np.asarray(stay_prob, dtype=np.float64),
                                (n_units,)),
                TRANS_FLOOR, 1.0 - TRANS_FLOOR)
    return np.log(p), np.log1p(-p)


# ---------------------------------------------------------------------------
# LBG clustering


def lbg_cluster(frames: np.ndarray, target_n: int, seed: int,
                epsilon: float = 0.2, max_iters: int = 50,
                rel_tol: float = 1e-6) -> np.ndarray:
    """Codebook of ``target_n`` centroids by binary splitting plus k-means.

    Splitting perturbs each centroid by +/- epsilon of the per-dimension
    standard deviation of its cluster.  Non-powers of two are reached by
    splitting to the next power of two and then merging lowest-occupancy
    clusters into their nearest neighbours.  Deterministic given the seed.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise DataError("lbg_cluster: empty frame set")
    if target_n < 1:
        raise DataError("lbg_cluster: target_n must be >= 1")
    n_distinct = np.unique(frames, axis=0).shape[0]
    if target_n > n_distinct:
        raise DataError(f"lbg_cluster: target_n {target_n} exceeds the "
                        f"number of distinct frames {n_distinct}")

    rng = np.random.default_rng(seed)
    global_std = np.maximum(frames.std(axis=0), 1e-12)
    centroids = frames.mean(axis=0, keepdims=True)

    while centroids.shape[0] < target_n:
        assign = nearest_centroid(frames, centroids)
        children = []
        for i in range(centroids.shape[0]):
            members = frames[assign == i]
            std = members.std(axis=0) if members.shape[0] > 1 else global_std
            std = np.where(std > 1e-12, std, global_std)
            signs = rng.choice([-1.0, 1.0], size=std.shape)
            delta = epsilon * std * signs
            children.append(centroids[i] + delta)
            children.append(centroids[i] - delta)
        centroids = _kmeans_refine(frames, np.vstack(children),
                                   max_iters, rel_tol)
        centroids = _swap_repair(frames, centroids, max_iters, rel_tol)

    if centroids.shape[0] > target_n:
        centroids = _merge_smallest(frames, centroids, target_n)
        centroids = _kmeans_refine(frames, centroids, max_iters, rel_tol)
        centroids = _swap_repair(frames, centroids, max_iters, rel_tol)
    return centroids


def nearest_centroid(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (np.sum(frames ** 2, axis=1)[:, None]
          - 2.0 * frames @ centroids.T
          + np.sum(centroids ** 2, axis=1)[None, :])
    return np.argmin(d2, axis=1)


def lbg_distortion(frames: np.ndarray, centroids: np.ndarray) -> float:
    assign = nearest_centroid(frames, centroids)
    return float(np.mean(np.sum((frames - centroids[assign]) ** 2, axis=1)))


def _kmeans_refine(frames, centroids, max_iters, rel_tol):
    prev = None
    for _ in range(max_iters):
        assign = nearest_centroid(frames, centroids)
        new = centroids.copy()
        resid = np.sum((frames - centroids[assign]) ** 2, axis=1)
        far_order = np.argsort(-resid)
        next_reseed = 0
        for i in range(centroids.shape[0]):
            members = frames[assign == i]
            if members.shape[0] > 0:
                new[i] = members.mean(axis=0)
            else:
                # reseed an empty cluster at the frame with the largest
                # residual, a deterministic fix; distinct frame per cluster
                new[i] = frames[far_order[next_reseed]]
                next_reseed += 1
        centroids = new
        dist = lbg_distortion(frames, centroids)
        if prev is not None and prev - dist <= rel_tol * max(abs(dist), 1e-12):
            break
        prev = dist
    return centroids


def _swap_repair(frames, centroids, max_iters, rel_tol):
    """Escape bad split trees by relocating redundant centroids.

    Repeatedly tries to move the centroid whose removal would cost least
    (its points mostly have a second-nearest centroid almost as close)
    onto the frame with the largest residual, keeping the move only when
    re-converged distortion improves.  Deterministic; at most one pass
    per centroid.
    """
    k = centroids.shape[0]
    if k < 2:
        return centroids
    best = _kmeans_refine(frames, centroids, max_iters, rel_tol)
    best_dist = lbg_distortion(frames, best)
    for _ in range(k):
        d2 = (np.sum(frames ** 2, axis=1)[:, None]
              - 2.0 * frames @ best.T
              + np.sum(best ** 2, axis=1)[None, :])
        order = np.argsort(d2, axis=1)
        own = order[:, 0]
        second_gain = d2[np.arange(len(frames)), order[:, 1]] \
            - d2[np.arange(len(frames)), own]
        utility = np.bincount(own, weights=second_gain, minlength=k)
        residual = d2[np.arange(len(frames)), own]
        improved = False
        for donor in np.argsort(utility)[:3]:
            trial = best.copy()
            trial[donor] = frames[int(np.argmax(residual))]
            trial = _kmeans_refine(frames, trial, max_iters, rel_tol)
            trial_dist = lbg_distortion(frames, trial)
            if trial_dist < best_dist * (1.0 - 1e-4):
                best, best_dist = trial, trial_dist
                improved = True
                break
        if not improved:
            break
    return best


def _merge_smallest(frames, centroids, target_n):
    centroids = list(centroids)
    counts = np.bincount(nearest_centroid(frames, np.array(centroids)),
                         minlength=len(centroids)).astype(float)
    while len(centroids) > target_n:
        small = int(np.argmin(counts))
        arr = np.array(centroids)
        d2 = np.sum((arr - arr[small]) ** 2, axis=1)
        d2[small] = np.inf
        near = int(np.argmin(d2))
        total = counts[small] + counts[near]
        merged = ((centroids[small] * counts[small]
                   + centroids[near] * counts[near]) / max(total, 1.0))
        keep = [c for i, c in enumerate(centroids) if i not in (small, near)]
        keep_counts = [c for i, c in enumerate(counts)
                       if i not in (small, near)]
        centroids = keep + [merged]
        counts = np.array(keep_counts + [total])
    return np.array(centroids)


# ---------------------------------------------------------------------------
# EM re-estimation and mixture doubling


def gmm_data_loglik(gmm: GmmEmission, frames: np.ndarray,
                    weights: np.ndarray | None = None) -> float:
    ll = gmm_frame_logpdf(gmm, frames)
    if weights is None:
        return float(np.sum(ll))
    return float(np.sum(weights * ll))


def em_reestimate(gmm: GmmEmission, frames: np.ndarray,
                  weights: np.ndarray | None = None,
                  var_floor: np.ndarray | float = 1e-8) -> GmmEmission:
    """One EM iteration on (optionally weighted) frames.

    The returned mixture never scores the data worse than the input one
    (up to the variance floor, which is applied to both).  A component
    whose total responsibility falls below STARVE_FRACTION of the total
    weight is reset to a perturbed copy of the heaviest component; this is
    logged, not fatal.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if weights is None:
        weights = np.ones(frames.shape[0])
    else:
        weights = np.asarray(weights, dtype=np.float64)
    total_w = float(np.sum(weights))
    if total_w <= 0:
        raise DataError("em_reestimate: total weight must be positive")
    floor = np.broadcast_to(np.asarray(var_floor, dtype=np.float64),
                            (gmm.dim,))

    log_joint = gmm.component_logpdfs(frames)          # (F, K)
    log_norm = _logsumexp_rows(log_joint)
    resp = np.exp(log_joint - log_norm[:, None]) * weights[:, None]
    occ = resp.sum(axis=0)                             # (K,)

    starved = occ < STARVE_FRACTION * total_w
    new_comps: list[DiagGaussian] = []
    new_weights = occ / total_w
    heavy = int(np.argmax(occ))
    for k in range(gmm.n_components):
        if starved[k]:
            src = gmm.components[heavy]
            shift = 0.1 * np.sqrt(src.var) * (1 if k % 2 == 0 else -1)
            new_comps.append(DiagGaussian(src.mean + shift,
                                          np.maximum(src.var, floor)))
            continue
        mean = resp[:, k] @ frames / occ[k]
        var = resp[:, k] @ (frames - mean) ** 2 / occ[k]
        new_comps.append(DiagGaussian(mean, np.maximum(var, floor)))
    if np.any(starved):
        logger.warning("em_reestimate: reset %d starved component(s)",
                       int(np.sum(starved)))
        new_weights = np.maximum(new_weights, STARVE_FRACTION)
    new_weights = new_weights / new_weights.sum()
    out = GmmEmission(new_weights, tuple(new_comps))
    if not np.all(np.isfinite([c.log_const for c in out.components])):
        raise NumericError("em_reestimate produced non-finite parameters")
    return out


def split_mixtures(gmm: GmmEmission, epsilon: float = 0.2) -> GmmEmission:
    """Double the component count: each child pair gets weight w/2 and
    means mu +/- epsilon * sigma."""
    comps: list[DiagGaussian] = []
    weights: list[float] = []
    for w, comp in zip(gmm.weights, gmm.components):
        shift = epsilon * np.sqrt(comp.var)
        comps.append(DiagGaussian(comp.mean + shift, comp.var.copy()))
        comps.append(DiagGaussian(comp.mean - shift, comp.var.copy()))
        weights.extend([w / 2.0, w / 2.0])
    return GmmEmission(np.array(weights), tuple(comps))


def split_model_set(models: AcousticModelSet,
                    epsilon: float = 0.2) -> AcousticModelSet:
    return replace(models,
                   units=tuple(split_mixtures(g, epsilon)
                               for g in models.units))


# ---------------------------------------------------------------------------
# Model serialization: versioned plain text, exact to 17 significant digits


def write_model_set(models: AcousticModelSet, path) -> None:
    def fmt(x):
        return f"{float(x):.17g}"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version 1\n")
        fh.write(f"n_units {models.n_units}\n")
        fh.write(f"var_floor {' '.join(fmt(v) for v in models.var_floor)}\n")
        for n, gmm in enumerate(models.units):
            fh.write(f"stay {fmt(models.stay_logprob[n])}\n")
            fh.write(f"exit {fmt(models.exit_logprob[n])}\n")
            fh.write(f"n_comp {gmm.n_components}\n")
            for w, comp in zip(gmm.weights, gmm.components):
                fh.write(f"w {fmt(w)}\n")
                fh.write(f"mean {' '.join(fmt(v) for v in comp.mean)}\n")
                fh.write(f"var {' '.join(fmt(v) for v in comp.var)}\n")


def read_model_set(path) -> AcousticModelSet:
    with open_input(path, "model file") as fh:
        tokens = [line.rstrip("\n") for line in fh
                  if line.strip() and not line.startswith("#")]
    it = iter(tokens)

    def expect(key):
        line = next(it, None)
        if line is None or not line.startswith(key + " "):
            raise DataError(f"{path}: expected {key!r}, got {line!r}")
        return line[len(key) + 1:]

    if expect("version") != "1":
        raise DataError(f"{path}: unsupported model version")
    n_units = int(expect("n_units"))
    var_floor = np.array([float(t) for t in expect("var_floor").split()])
    units, stays, exits = [], [], []
    for _ in range(n_units):
        stays.append(float(expect("stay")))
        exits.append(float(expect("exit")))
        n_comp = int(expect("n_comp"))
        weights, comps = [], []
        for _ in range(n_comp):
            weights.append(float(expect("w")))
            mean = np.array([float(t) for t in expect("mean").split()])
            var = np.array([float(t) for t in expect("var").split()])
            comps.append(DiagGaussian(mean, var))
        units.append(GmmEmission(np.array(weights), tuple(comps)))
    return AcousticModelSet(tuple(units), np.array(stays), np.array(exits),
                            var_floor)
