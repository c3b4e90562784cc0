"""Acoustic unit models: LBG clustering, diagonal GMMs, EM, mixture doubling.

Every acoustic unit is a single HMM state whose emission is a diagonal
covariance GMM.  A model set stores its N units packed, the way HTK
stores a state's mixture: ``weights (N, K)``, ``means (N, K, D)`` and
``variances (N, K, D)``, plus the cached log normalizer
``log_const (N, K)`` (HTK's gconst).  Every unit has the same number of
components K: mixture doubling keeps it uniform, and the model file
reader rejects files whose units disagree.  Model sets are immutable;
re-estimation returns new sets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, NumericError, open_input

logger = logging.getLogger(__name__)

LOG_2PI = math.log(2.0 * math.pi)

# fraction of a unit's frame count below which a component is considered
# starved and reset to a perturbed copy of the heaviest component
STARVE_FRACTION = 1e-6

# keep stay/exit probabilities away from 0 and 1 so log costs stay finite
TRANS_FLOOR = 1e-4

# values in one block of the emission-scoring temporary (512 KB of
# float64): a block's temporaries stay in cache, where whole-corpus
# arrays of 2 MB and more made scoring up to twice as slow
BLOCK_ELEMENTS = 1 << 16

# LBG's k-means stops after this many updates or at this relative gain
KMEANS_MAX_ITERS = 50
KMEANS_REL_TOL = 1e-6


@dataclass(frozen=True)
class AcousticModelSet:
    """N single-state unit GMMs of K diagonal components in D dimensions,
    plus per-unit stay/exit log probabilities and the variance floor."""

    weights: np.ndarray           # (N, K), each row sums to 1
    means: np.ndarray             # (N, K, D)
    variances: np.ndarray         # (N, K, D), all > 0
    stay_logprob: np.ndarray      # (N,)
    exit_logprob: np.ndarray      # (N,)
    var_floor: np.ndarray         # (D,)
    log_const: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("weights", "means", "variances", "stay_logprob",
                     "exit_logprob", "var_floor"):
            object.__setattr__(self, name, np.ascontiguousarray(
                getattr(self, name), dtype=np.float64))
        if self.means.ndim != 3 or min(self.means.shape[:2]) < 1:
            raise DataError("model set needs means of shape (units >= 1, "
                            f"components >= 1, dim), got {self.means.shape}")
        n, k, d = self.means.shape
        if self.variances.shape != (n, k, d) or self.weights.shape != (n, k):
            raise DataError("weight/mean/variance shape mismatch")
        if np.any(self.variances <= 0):
            raise DataError("non-positive variance component")
        if self.var_floor.shape != (d,):
            raise DataError(f"var_floor has shape {self.var_floor.shape}, "
                            f"expected ({d},)")
        if np.any(np.abs(np.sum(self.weights, axis=1) - 1.0) > 1e-10):
            raise DataError("GMM weights do not sum to 1")
        if self.stay_logprob.shape != (n,) or self.exit_logprob.shape != (n,):
            raise DataError("transition array shape mismatch")
        total = np.exp(self.stay_logprob) + np.exp(self.exit_logprob)
        if np.any(np.abs(total - 1.0) > 1e-10):
            raise DataError("stay+exit probabilities do not sum to 1")
        object.__setattr__(self, "log_const", -0.5 * (
            d * LOG_2PI + np.sum(np.log(self.variances), axis=-1)))

    @property
    def n_units(self) -> int:
        return self.means.shape[0]

    @property
    def n_components(self) -> int:
        return self.means.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]

    def frame_scores(self, features: np.ndarray) -> np.ndarray:
        """(frames, units) emission log densities; the scorer interface.

        Frames are scored in blocks of about BLOCK_ELEMENTS (frames,
        units, components, dim) values; a frame's score does not depend
        on the block it is in.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.dim:
            raise DataError(f"expected (frames, {self.dim}) matrix, "
                            f"got shape {features.shape}")
        step = max(1, BLOCK_ELEMENTS // self.means.size)
        scores = np.empty((features.shape[0], self.n_units))
        for s in range(0, features.shape[0], step):
            scores[s:s + step] = _logsumexp(
                _log_joint(self, features[s:s + step], slice(None)))
        return scores


def _log_joint(models: AcousticModelSet, frames: np.ndarray,
               units: slice) -> np.ndarray:
    """(frames, units, components) weighted component log densities,
    log w_k + log N(x; mu_k, diag var_k), of the selected units.

    Frames are taken in blocks so that the (frames, units, components,
    dim) temporary stays near BLOCK_ELEMENTS values however long the
    input is.
    """
    means, variances = models.means[units], models.variances[units]
    step = max(1, BLOCK_ELEMENTS // means.size)
    quad = np.empty(frames.shape[:1] + means.shape[:2])
    for s in range(0, frames.shape[0], step):
        quad[s:s + step] = np.sum(
            (frames[s:s + step, None, None, :] - means) ** 2 / variances,
            axis=-1)
    with np.errstate(divide="ignore"):
        return (models.log_const[units] - 0.5 * quad
                + np.log(models.weights[units]))


def _logsumexp(mat: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, stabilized by its maximum."""
    peak = np.max(mat, axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return peak[..., 0] + np.log(np.sum(np.exp(mat - peak), axis=-1))


def make_transitions(stay_prob: float | np.ndarray, n_units: int):
    p = np.clip(np.broadcast_to(np.asarray(stay_prob, dtype=np.float64),
                                (n_units,)),
                TRANS_FLOOR, 1.0 - TRANS_FLOOR)
    return np.log(p), np.log1p(-p)


# ---------------------------------------------------------------------------
# LBG clustering


def lbg_cluster(frames: np.ndarray, target_n: int, seed: int,
                epsilon: float = 0.2) -> np.ndarray:
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
        centroids, _ = _kmeans_refine(frames, np.vstack(children))
        centroids = _swap_repair(frames, centroids)

    if centroids.shape[0] > target_n:
        centroids = _merge_smallest(frames, centroids, target_n)
        centroids, _ = _kmeans_refine(frames, centroids)
        centroids = _swap_repair(frames, centroids)
    return centroids


def _sq_dists(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(frames, centroids) squared distances, |x|^2 - 2 x.c + |c|^2."""
    return (np.sum(frames ** 2, axis=1)[:, None]
            - 2.0 * frames @ centroids.T
            + np.sum(centroids ** 2, axis=1)[None, :])


def nearest_centroid(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_dists(frames, centroids), axis=1)


def _kmeans_refine(frames, centroids):
    """Lloyd's k-means from ``centroids``: (centroids, their distortion).
    Each pass assigns once; the first gain compared is the second update's.
    """
    for it in range(KMEANS_MAX_ITERS + 1):
        assign = nearest_centroid(frames, centroids)
        resid = np.sum((frames - centroids[assign]) ** 2, axis=1)
        dist = float(np.mean(resid))
        if it == KMEANS_MAX_ITERS or it > 1 and (
                prev - dist <= KMEANS_REL_TOL * max(abs(dist), 1e-12)):
            return centroids, dist
        prev = dist
        new = centroids.copy()
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


def _swap_repair(frames, centroids):
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
    best, best_dist = _kmeans_refine(frames, centroids)
    for _ in range(k):
        d2 = _sq_dists(frames, best)
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
            trial, trial_dist = _kmeans_refine(frames, trial)
            if trial_dist < best_dist * (1.0 - 1e-4):
                best, best_dist = trial, trial_dist
                improved = True
                break
        if not improved:
            break
    return best


def _merge_smallest(frames, centroids, target_n):
    counts = np.bincount(nearest_centroid(frames, centroids),
                         minlength=len(centroids)).astype(float)
    while len(centroids) > target_n:
        small = int(np.argmin(counts))
        d2 = np.sum((centroids - centroids[small]) ** 2, axis=1)
        d2[small] = np.inf
        near = int(np.argmin(d2))
        total = counts[small] + counts[near]
        merged = ((centroids[small] * counts[small]
                   + centroids[near] * counts[near]) / max(total, 1.0))
        keep = np.ones(len(centroids), dtype=bool)
        keep[[small, near]] = False
        centroids = np.vstack([centroids[keep], merged])
        counts = np.append(counts[keep], total)
    return centroids


# ---------------------------------------------------------------------------
# EM re-estimation and mixture doubling


def em_reestimate(models: AcousticModelSet, frames: np.ndarray,
                  labels: np.ndarray) -> tuple[AcousticModelSet, int]:
    """One EM iteration of every unit on the frames labelled with it.

    ``frames`` is a (F, D) matrix and ``labels`` holds its F unit ids;
    each unit pools its frames in their given order.  A unit's new
    mixture never scores its frames worse than the old one (up to the
    variance floor).  A component whose responsibility falls below
    STARVE_FRACTION of the unit's frame count is reset to a perturbed
    copy of the heaviest component; this is logged, not fatal.  Units
    without frames keep their parameters.  Returns (new models, number
    of units without frames).
    """
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels)
    if (frames.ndim != 2 or frames.shape[1] != models.dim
            or labels.shape != frames.shape[:1]):
        raise DataError(f"em_reestimate: expected (frames, {models.dim}) "
                        f"frames with one label each, got {frames.shape} "
                        f"and {labels.shape}")
    weights = models.weights.copy()
    means = models.means.copy()
    variances = models.variances.copy()
    empty = 0
    for n in range(models.n_units):
        x = frames[labels == n]
        if x.shape[0] == 0:
            empty += 1
            continue
        log_joint = _log_joint(models, x, slice(n, n + 1))[:, 0]
        resp = np.exp(log_joint - _logsumexp(log_joint)[:, None])
        occ = resp.sum(axis=0)
        starved = occ < STARVE_FRACTION * x.shape[0]
        heavy = int(np.argmax(occ))
        for k in range(models.n_components):
            if starved[k]:
                src_var = models.variances[n, heavy]
                shift = 0.1 * np.sqrt(src_var) * (1 if k % 2 == 0 else -1)
                means[n, k] = models.means[n, heavy] + shift
                variances[n, k] = np.maximum(src_var, models.var_floor)
                continue
            mean = resp[:, k] @ x / occ[k]
            means[n, k] = mean
            variances[n, k] = np.maximum(
                resp[:, k] @ (x - mean) ** 2 / occ[k], models.var_floor)
        new_weights = occ / x.shape[0]
        if np.any(starved):
            logger.warning("em_reestimate: unit %d: reset %d starved "
                           "component(s)", n, int(np.sum(starved)))
            new_weights = np.maximum(new_weights, STARVE_FRACTION)
        weights[n] = new_weights / new_weights.sum()
    out = replace(models, weights=weights, means=means, variances=variances)
    if not np.all(np.isfinite(out.log_const)):
        raise NumericError("em_reestimate produced non-finite parameters")
    return out, empty


def split_model_set(models: AcousticModelSet,
                    epsilon: float = 0.2) -> AcousticModelSet:
    """Double every unit's component count.

    Component k becomes the children 2k and 2k+1 with means
    mu + epsilon * sigma and mu - epsilon * sigma, the parent's variance
    and half its weight each.
    """
    n, k, d = models.means.shape
    shift = epsilon * np.sqrt(models.variances)
    means = np.stack([models.means + shift, models.means - shift], axis=2)
    return replace(models,
                   weights=np.repeat(models.weights / 2.0, 2, axis=1),
                   means=means.reshape(n, 2 * k, d),
                   variances=np.repeat(models.variances, 2, axis=1))


# ---------------------------------------------------------------------------
# Model serialization: versioned plain text, exact to 17 significant digits


def write_model_set(models: AcousticModelSet, path) -> None:
    def fmt(values):
        return " ".join(f"{float(x):.17g}" for x in np.atleast_1d(values))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version 1\n")
        fh.write(f"n_units {models.n_units}\n")
        fh.write(f"var_floor {fmt(models.var_floor)}\n")
        for n in range(models.n_units):
            fh.write(f"stay {fmt(models.stay_logprob[n])}\n")
            fh.write(f"exit {fmt(models.exit_logprob[n])}\n")
            fh.write(f"n_comp {models.n_components}\n")
            for k in range(models.n_components):
                fh.write(f"w {fmt(models.weights[n, k])}\n")
                fh.write(f"mean {fmt(models.means[n, k])}\n")
                fh.write(f"var {fmt(models.variances[n, k])}\n")


def read_model_set(path) -> AcousticModelSet:
    with open_input(path, "model file") as fh:
        lines = iter([line.rstrip("\n") for line in fh
                      if line.strip() and not line.startswith("#")])

        def expect(key):
            line = next(lines, None)
            if line is None or not line.startswith(key + " "):
                raise DataError(f"{path}: expected {key!r}, got {line!r}")
            return line[len(key) + 1:]

        def floats(key):
            return [float(t) for t in expect(key).split()]

        if expect("version") != "1":
            raise DataError(f"{path}: unsupported model version")
        n_units = int(expect("n_units"))
        var_floor = floats("var_floor")
        stays, exits, weights, means, variances = [], [], [], [], []
        for n in range(n_units):
            stays.append(float(expect("stay")))
            exits.append(float(expect("exit")))
            n_comp = int(expect("n_comp"))
            if weights and n_comp != len(weights[0]):
                raise DataError(f"{path}: unit {n} has {n_comp} components "
                                f"and unit 0 has {len(weights[0])}; every "
                                "unit needs the same count")
            unit = [(float(expect("w")), floats("mean"), floats("var"))
                    for _ in range(n_comp)]
            weights.append([w for w, _, _ in unit])
            means.append([m for _, m, _ in unit])
            variances.append([v for _, _, v in unit])
        return AcousticModelSet(np.array(weights), np.array(means),
                                np.array(variances), np.array(stays),
                                np.array(exits), np.array(var_floor))
