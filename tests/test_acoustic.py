import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublex import acoustic
from sublex.acoustic import (AcousticModelSet, em_reestimate, lbg_cluster,
                             make_transitions, nearest_centroid,
                             read_model_set, split_model_set,
                             write_model_set)
from sublex.errors import DataError

from conftest import gaussian_model_set, random_model_set

DATA = Path(__file__).parent / "data"


def gmm(weights, means, variances, var_floor=1e-8):
    """A one-unit model set with the given mixture."""
    means = np.asarray(means, dtype=np.float64)
    stay, exit_ = make_transitions(0.5, 1)
    return AcousticModelSet(np.asarray(weights, dtype=np.float64)[None],
                            means[None],
                            np.asarray(variances, dtype=np.float64)[None],
                            stay, exit_, np.full(means.shape[1], var_floor))


def single_gaussian(mean, var, var_floor=1e-8):
    return gmm([1.0], [mean], [var], var_floor)


def random_gmm(rng, n_comp, dim, spread=2.0):
    w = rng.uniform(0.2, 1.0, size=n_comp)
    return gmm(w / w.sum(), rng.normal(size=(n_comp, dim)) * spread,
               rng.uniform(0.2, 2.0, size=(n_comp, dim)))


def logpdf(models, x):
    """Log density of one vector under every unit."""
    return models.frame_scores(np.asarray(x, dtype=np.float64)[None])[0]


def reference_scores(models, frames):
    """Per-unit, per-component evaluation of the mixture densities."""
    out = np.empty((len(frames), models.n_units))
    for t, x in enumerate(frames):
        for n in range(models.n_units):
            terms = [math.log(w) - 0.5 * float(np.sum(
                np.log(2 * math.pi * var) + (x - mean) ** 2 / var))
                for w, mean, var in zip(models.weights[n], models.means[n],
                                        models.variances[n])]
            out[t, n] = np.logaddexp.reduce(terms)
    return out


def data_loglik(models, frames, labels):
    """Summed log density of each frame under the unit it is labelled with."""
    scores = models.frame_scores(frames)
    return float(np.sum(scores[np.arange(len(frames)), labels]))


def distortion(frames, centroids):
    """Mean squared distance of each frame to its nearest centroid."""
    assign = nearest_centroid(frames, centroids)
    return float(np.mean(np.sum((frames - centroids[assign]) ** 2, axis=1)))


def reference_kmeans(frames, centroids, max_iters, rel_tol):
    """Lloyd's k-means that assigns at the top of each update and
    recomputes the distortion after it: (centroids, distortion, updates)."""
    prev, updates = None, 0
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
                new[i] = frames[far_order[next_reseed]]
                next_reseed += 1
        centroids = new
        updates += 1
        dist = distortion(frames, centroids)
        if prev is not None and prev - dist <= rel_tol * max(abs(dist), 1e-12):
            break
        prev = dist
    return centroids, distortion(frames, centroids), updates


class TestKmeans:
    def check(self, frames, centroids):
        got, dist = acoustic._kmeans_refine(frames, centroids)
        want, want_dist, updates = reference_kmeans(
            frames, centroids, acoustic.KMEANS_MAX_ITERS,
            acoustic.KMEANS_REL_TOL)
        np.testing.assert_array_equal(got, want)
        assert dist == want_dist
        return updates

    def test_converges_like_the_reference(self):
        rng = np.random.default_rng(3)
        frames = np.vstack([rng.normal(m, 1.0, size=(80, 2))
                            for m in (0.0, 5.0, 10.0)])
        updates = self.check(frames, frames[[0, 1, 2, 3]].copy())
        assert 2 < updates < acoustic.KMEANS_MAX_ITERS

    def test_first_gain_is_not_compared(self):
        # the first update only rounds the centroids to their clusters'
        # means (a gain far below the tolerance); frame -1 then sits
        # midway and moves, and the second update gains much more
        frames = np.array([[-4.0], [-2.0], [-2.0], [-1.0], [1.0], [2.0]])
        centroids = np.array([[-2.6667], [0.6666]])
        assert self.check(frames, centroids) == 3
        got, dist = acoustic._kmeans_refine(frames, centroids)
        assert got.ravel().tolist() == [-2.25, 1.5] and dist == 0.875

    def test_stops_at_the_iteration_cap(self, rng, monkeypatch):
        frames = rng.normal(size=(400, 2))
        centroids = frames[:8].copy()
        monkeypatch.setattr(acoustic, "KMEANS_MAX_ITERS", 3)
        assert self.check(frames, centroids) == 3
        uncapped, _, _ = reference_kmeans(frames, centroids, 50, 1e-6)
        assert not np.array_equal(
            acoustic._kmeans_refine(frames, centroids)[0], uncapped)

    def test_emptied_cluster_reseeded_at_the_farthest_frame(self,
                                                            monkeypatch):
        # the first update moves the outer centroids closer to frames -2
        # and 3 than the middle centroid, so the middle cluster empties
        frames = np.array([[-4.0], [-3.0], [-2.0], [3.0], [4.0], [5.0],
                           [5.0]])
        centroids = np.array([[-4.5], [-0.4], [6.5]])
        self.check(frames, centroids)
        monkeypatch.setattr(acoustic, "KMEANS_MAX_ITERS", 2)
        assert self.check(frames, centroids) == 2
        twice, _ = acoustic._kmeans_refine(frames, centroids)
        # frame 3 is the farthest from the centroids of the first update
        assert twice.ravel().tolist() == [-3.0, 3.0, 4.25]


class TestLbg:
    def test_single_centroid_is_global_mean(self, rng):
        frames = rng.normal(size=(50, 3))
        cents = lbg_cluster(frames, 1, seed=0)
        np.testing.assert_allclose(cents[0], frames.mean(axis=0), atol=1e-12)

    def test_four_well_separated_clouds(self):
        rng = np.random.default_rng(77)
        means = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0], [12.0, 12.0]])
        frames = np.vstack([rng.normal(m, 1.0, size=(500, 2)) for m in means])
        cents = lbg_cluster(frames, 4, seed=0)
        for m in means:
            best = np.min(np.linalg.norm(cents - m, axis=1))
            assert best < 0.1  # within 0.1 sigma of the cloud mean

    def test_distortion_non_increasing_across_rounds(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(400, 2)) * np.array([3.0, 1.0])
        dists = [distortion(frames, lbg_cluster(frames, n, seed=1))
                 for n in (1, 2, 4, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))

    def test_deterministic_given_seed(self, rng):
        frames = rng.normal(size=(300, 2))
        c1 = lbg_cluster(frames, 4, seed=9)
        c2 = lbg_cluster(frames, 4, seed=9)
        np.testing.assert_array_equal(c1, c2)

    def test_non_power_of_two(self, rng):
        frames = rng.normal(size=(600, 2)) * 4
        cents = lbg_cluster(frames, 3, seed=0)
        assert cents.shape == (3, 2)
        cents = lbg_cluster(frames, 6, seed=0)
        assert cents.shape == (6, 2)

    def test_errors(self, rng):
        with pytest.raises(DataError):
            lbg_cluster(np.zeros((0, 2)), 1, seed=0)
        with pytest.raises(DataError):
            lbg_cluster(rng.normal(size=(3, 2)), 8, seed=0)


class TestGmmLogpdf:
    def test_standard_normal_at_mean(self):
        models = single_gaussian([0.0], [1.0])
        assert logpdf(models, np.zeros(1))[0] == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-12)
        assert logpdf(models, np.zeros(1))[0] == pytest.approx(-0.91893853,
                                                               abs=1e-8)

    def test_duplicate_components_collapse(self, rng):
        mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
        one = single_gaussian(mean, var)
        two = gmm([0.5, 0.5], [mean, mean], [var, var])
        x = rng.normal(size=3)
        assert logpdf(two, x)[0] == pytest.approx(logpdf(one, x)[0],
                                                  abs=1e-12)

    def test_matches_high_precision_oracle(self):
        # 50-digit mpmath evaluation of the same mixture, frozen
        models = gmm([0.5, 0.3, 0.2],
                     [[0.3, -1.2], [1.7, 0.4], [-0.8, 0.9]],
                     [[0.6, 1.1], [0.9, 0.5], [1.4, 0.7]])
        got = logpdf(models, np.array([0.25, -0.5]))[0]
        assert got == pytest.approx(-2.370578123027683380354, abs=1e-10)

    def test_dimension_mismatch(self):
        models = single_gaussian([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(DataError):
            models.frame_scores(np.zeros((1, 3)))
        with pytest.raises(DataError):
            models.frame_scores(np.zeros(2))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_component_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        models = random_gmm(rng, 3, 2)
        perm = rng.permutation(3)
        shuffled = gmm(models.weights[0, perm], models.means[0, perm],
                       models.variances[0, perm])
        x = rng.normal(size=2)
        assert logpdf(models, x)[0] == pytest.approx(logpdf(shuffled, x)[0],
                                                     abs=1e-12)

    def test_matrix_form_matches_vector_form(self, rng):
        models = random_model_set(rng, 4, 3, max_comps=3)
        frames = rng.normal(size=(5, 3))
        per_frame = models.frame_scores(frames)
        assert per_frame.shape == (5, 4)
        for t in range(5):
            np.testing.assert_array_equal(per_frame[t],
                                          logpdf(models, frames[t]))

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocked_scoring_is_exact(self, monkeypatch, block):
        rng = np.random.default_rng(block)
        models = random_model_set(rng, 5, 3, max_comps=3)
        frames = rng.normal(size=(23, 3)) * 3
        labels = rng.integers(0, 5, size=23)
        whole = models.frame_scores(frames)
        em_whole, _ = em_reestimate(models, frames, labels)
        monkeypatch.setattr(acoustic, "BLOCK_ELEMENTS", block)
        np.testing.assert_array_equal(models.frame_scores(frames), whole)
        em_blocked, _ = em_reestimate(models, frames, labels)
        for name in ("weights", "means", "variances"):
            np.testing.assert_array_equal(getattr(em_blocked, name),
                                          getattr(em_whole, name))

    def test_matches_per_component_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            models = random_model_set(rng, int(rng.integers(1, 6)),
                                      int(rng.integers(1, 5)), max_comps=4)
            frames = rng.normal(size=(int(rng.integers(1, 9)),
                                      models.dim)) * 3
            np.testing.assert_allclose(models.frame_scores(frames),
                                       reference_scores(models, frames),
                                       rtol=1e-12, atol=1e-12)


class TestEmReestimate:
    def test_single_component_closed_form(self, rng):
        frames = rng.normal(size=(40, 2)) * 2 + 1
        labels = rng.integers(0, 2, size=40)
        models = gaussian_model_set(np.zeros((2, 2)), np.ones((2, 2)))
        new, empty = em_reestimate(models, frames, labels)
        assert empty == 0
        for n in range(2):
            x = frames[labels == n]
            mean = x.mean(axis=0)
            np.testing.assert_allclose(new.means[n, 0], mean, atol=1e-12)
            np.testing.assert_allclose(new.variances[n, 0],
                                       ((x - mean) ** 2).mean(axis=0),
                                       atol=1e-12)

    def test_monotone_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            models = random_model_set(rng, int(rng.integers(1, 4)), 2,
                                      max_comps=3, spread=2.0)
            frames = rng.normal(size=(int(rng.integers(5, 40)), 2)) * 2
            labels = rng.integers(0, models.n_units, size=len(frames))
            new, _ = em_reestimate(models, frames, labels)
            for n in range(models.n_units):
                x, lab = frames[labels == n], labels[labels == n]
                before = data_loglik(models, x, lab)
                after = data_loglik(new, x, lab)
                assert after >= before - 1e-8 * max(1.0, abs(before))

    def test_two_cluster_responsibilities(self):
        rng = np.random.default_rng(3)
        frames = np.vstack([rng.normal(-6.0, 1.0, size=(60, 1)),
                            rng.normal(6.0, 1.0, size=(60, 1))])
        labels = np.zeros(120, dtype=int)
        models = gmm([0.5, 0.5], [[-1.0], [1.0]], [[4.0], [4.0]])
        for _ in range(10):
            models, _ = em_reestimate(models, frames, labels)
        log_joint = np.stack([
            reference_scores(gmm([1.0], models.means[0, k:k + 1],
                                 models.variances[0, k:k + 1]), frames)[:, 0]
            + math.log(models.weights[0, k]) for k in range(2)], axis=1)
        resp = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        assert resp[:60, 0].min() > 0.99 or resp[:60, 1].min() > 0.99

    def test_starved_component_reset(self, rng, caplog):
        frames = rng.normal(size=(30, 1))
        models = gmm([0.999, 0.001], [[0.0], [1e6]], [[1.0], [1.0]])
        with caplog.at_level("WARNING"):
            new, _ = em_reestimate(models, frames, np.zeros(30, dtype=int))
        assert "unit 0: reset 1 starved" in caplog.text
        assert abs(new.means[0, 1, 0]) < 10.0
        assert new.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_units_without_frames_keep_parameters(self, rng):
        models = random_model_set(rng, 3, 2)
        frames = rng.normal(size=(10, 2))
        new, empty = em_reestimate(models, frames, np.ones(10, dtype=int))
        assert empty == 2
        for n in (0, 2):
            np.testing.assert_array_equal(new.means[n], models.means[n])
            np.testing.assert_array_equal(new.variances[n],
                                          models.variances[n])
            np.testing.assert_array_equal(new.weights[n], models.weights[n])

    def test_label_count_mismatch_rejected(self, rng):
        models = single_gaussian([0.0], [1.0])
        with pytest.raises(DataError):
            em_reestimate(models, rng.normal(size=(3, 1)), np.zeros(2))

    def test_frame_order_insensitive(self, rng):
        # additive accumulators reassociate; parameters must agree to 1e-9
        models = random_model_set(rng, 2, 2, max_comps=1)
        models = split_model_set(split_model_set(models))
        frames = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, size=200)
        perm = rng.permutation(200)
        a, _ = em_reestimate(models, frames, labels)
        b, _ = em_reestimate(models, frames[perm], labels[perm])
        np.testing.assert_allclose(a.means, b.means, atol=1e-9)
        np.testing.assert_allclose(a.variances, b.variances, atol=1e-9)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-9)

    def test_variance_floor_applied(self, rng):
        frames = np.zeros((10, 1))  # degenerate data
        models = single_gaussian([0.0], [1.0], var_floor=0.05)
        new, _ = em_reestimate(models, frames, np.zeros(10, dtype=int))
        assert new.variances[0, 0, 0] >= 0.05


class TestSplitMixtures:
    def test_single_component_split(self):
        models = single_gaussian([1.0, -1.0], [0.25, 4.0])
        out = split_model_set(models, epsilon=0.2)
        assert out.n_components == 2
        np.testing.assert_allclose(out.weights, [[0.5, 0.5]])
        np.testing.assert_allclose(out.means[0, 0], [1.0 + 0.1, -1.0 + 0.4])
        np.testing.assert_allclose(out.means[0, 1], [1.0 - 0.1, -1.0 - 0.4])
        np.testing.assert_array_equal(out.variances[0],
                                      [[0.25, 4.0], [0.25, 4.0]])

    def test_doubling_schedule_reaches_128_after_7(self):
        models = single_gaussian([0.0], [1.0])
        for _ in range(7):
            models = split_model_set(models)
        assert models.n_components == 128
        assert models.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_split_then_em_does_not_lose_likelihood(self):
        rng = np.random.default_rng(31)
        models = random_gmm(rng, 2, 2)
        frames = np.vstack([
            rng.normal(mean, np.sqrt(var), size=(80, 2))
            for mean, var in zip(models.means[0], models.variances[0])])
        labels = np.zeros(len(frames), dtype=int)
        before = data_loglik(models, frames, labels)
        refined, _ = em_reestimate(split_model_set(models), frames, labels)
        after = data_loglik(refined, frames, labels)
        assert after >= before - 1e-8 * abs(before)

    def test_weights_preserved(self, rng):
        models = random_model_set(rng, 3, 2, max_comps=1)
        models = split_model_set(split_model_set(models), epsilon=0.3)
        out = split_model_set(models)
        assert out.n_components == 8
        # children 2k and 2k+1 of component k: w/2 each, mu +- eps sigma
        np.testing.assert_array_equal(out.weights,
                                      np.repeat(models.weights / 2, 2, 1))
        shift = 0.2 * np.sqrt(models.variances)
        np.testing.assert_array_equal(out.means[:, 0::2],
                                      models.means + shift)
        np.testing.assert_array_equal(out.means[:, 1::2],
                                      models.means - shift)


class TestModelSetIO:
    def test_round_trip_exact(self, rng, tmp_path):
        models = random_model_set(rng, 3, 2, max_comps=3)
        path = tmp_path / "m.txt"
        write_model_set(models, path)
        again = read_model_set(path)
        for name in ("weights", "means", "variances", "stay_logprob",
                     "exit_logprob", "var_floor", "log_const"):
            np.testing.assert_array_equal(getattr(again, name),
                                          getattr(models, name))

    def test_pinned_version_1_file_round_trips_bytes(self, tmp_path):
        # written by the object-tree implementation this layout replaced
        models = read_model_set(DATA / "models_v1.txt")
        assert (models.n_units, models.n_components, models.dim) == (4, 2, 3)
        write_model_set(models, tmp_path / "again.txt")
        assert ((tmp_path / "again.txt").read_bytes()
                == (DATA / "models_v1.txt").read_bytes())

    def test_ragged_component_counts_rejected(self, tmp_path):
        text = (DATA / "models_v1.txt").read_text().split("\n")
        # drop the second component of the last unit
        last = max(i for i, line in enumerate(text)
                   if line.startswith("n_comp"))
        text[last] = "n_comp 1"
        del text[last + 4:last + 7]
        path = tmp_path / "ragged.txt"
        path.write_text("\n".join(text))
        with pytest.raises(DataError, match="same count"):
            read_model_set(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("version 1\nn_units 1\n")
        with pytest.raises(DataError):
            read_model_set(path)
        for bad in ("n_units abc", "var 1 x 3", "mean 1 2"):
            key = bad.split()[0]
            text = "\n".join(
                bad if line.startswith(key + " ") else line
                for line in (DATA / "models_v1.txt").read_text().split("\n"))
            path.write_text(text)
            with pytest.raises(DataError):
                read_model_set(path)


class TestInvariants:
    def test_transition_invariant_enforced(self):
        with pytest.raises(DataError):
            AcousticModelSet(np.ones((1, 1)), np.zeros((1, 1, 1)),
                             np.ones((1, 1, 1)), np.array([-0.1]),
                             np.array([-0.1]), np.array([1e-8]))

    def test_make_transitions_sums_to_one(self, rng):
        stay, exit_ = make_transitions(rng.uniform(0, 1, size=5), 5)
        np.testing.assert_allclose(np.exp(stay) + np.exp(exit_), 1.0,
                                   atol=1e-12)

    def test_weights_must_normalize(self):
        with pytest.raises(DataError):
            gmm([0.6, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])

    def test_shapes_and_variances_checked(self):
        with pytest.raises(DataError):
            gmm([1.0], [[0.0]], [[0.0]])
        with pytest.raises(DataError):
            gmm([0.5, 0.5], [[0.0], [1.0]], [[1.0]])

    @pytest.mark.parametrize("floor", [[1e-8, 1e-8, 1e-8], [1e-8], 1e-8])
    def test_var_floor_must_match_dim(self, floor):
        with pytest.raises(DataError, match="var_floor"):
            AcousticModelSet(np.ones((1, 1)), np.zeros((1, 1, 2)),
                             np.ones((1, 1, 2)), np.log([0.5]),
                             np.log([0.5]), floor)

    def test_log_const_cached(self, rng):
        models = random_model_set(rng, 3, 4, max_comps=2)
        expected = [[-0.5 * (4 * math.log(2 * math.pi)
                             + float(np.sum(np.log(var))))
                     for var in unit] for unit in models.variances]
        np.testing.assert_allclose(models.log_const, expected, rtol=1e-15)

    def test_nearest_centroid(self):
        frames = np.array([[0.0, 0.0], [5.0, 5.0]])
        cents = np.array([[0.1, 0.0], [4.9, 5.1]])
        np.testing.assert_array_equal(nearest_centroid(frames, cents), [0, 1])
