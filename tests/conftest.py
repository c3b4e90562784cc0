import numpy as np
import pytest

from sublex.acoustic import AcousticModelSet, make_transitions


def random_model_set(rng, n_units, dim, max_comps=2, spread=3.0):
    """A random diagonal-GMM model set for small DP instances.

    The component count is drawn once per set, since every unit has the
    same; then each unit draws its components and weights in turn.
    """
    k = int(rng.integers(1, max_comps + 1))
    means, variances, weights = [], [], []
    for _ in range(n_units):
        comps = [(rng.normal(size=dim) * spread,
                  rng.uniform(0.3, 2.0, size=dim)) for _ in range(k)]
        w = rng.uniform(0.2, 1.0, size=k)
        means.append([m for m, _ in comps])
        variances.append([v for _, v in comps])
        weights.append(w / w.sum())
    stay, exit_ = make_transitions(rng.uniform(0.2, 0.8, size=n_units),
                                   n_units)
    return AcousticModelSet(weights, means, variances, stay, exit_,
                            np.full(dim, 1e-8))


def gaussian_model_set(means, variances, var_floor=1e-8):
    """One single-Gaussian unit per row of ``means`` and ``variances``,
    with stay probability 0.5."""
    means = np.asarray(means, dtype=np.float64)
    n, dim = means.shape
    stay, exit_ = make_transitions(0.5, n)
    return AcousticModelSet(np.ones((n, 1)), means[:, None],
                            np.asarray(variances, dtype=np.float64)[:, None],
                            stay, exit_, np.broadcast_to(var_floor, (dim,)))


def sample_walk(models, seq, max_frames_per_unit, rng):
    """Emit an utterance by walking a unit sequence through the models."""
    rows = []
    for u in seq:
        k = rng.choice(models.n_components, p=models.weights[u])
        n = int(rng.integers(1, max_frames_per_unit + 1))
        rows.append(rng.normal(models.means[u, k],
                               np.sqrt(models.variances[u, k]),
                               size=(n, models.dim)))
    return np.vstack(rows)


def random_no_repeat_seq(rng, n_units, length):
    seq = [int(rng.integers(n_units))]
    while len(seq) < length:
        nxt = int(rng.integers(n_units - 1))
        if nxt >= seq[-1]:
            nxt += 1
        seq.append(nxt)
    return tuple(seq)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
