import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sublex.acoustic import lbg_cluster, nearest_centroid
from sublex.corpus import Corpus, SynthSpec, Utterance, synth_corpus
from sublex.errors import DataError, NoPathError
from sublex.hmm import (Dictionary, build_graph, chain_graph, chain_loglik,
                        collapse_labels, force_align, free_loop_decode,
                        path_loglik, read_dictionary, transition_counts_from_labels,
                        viterbi, viterbi_train_step, write_dictionary)

from conftest import gaussian_model_set, random_model_set


def enumerate_chain_paths(units, stay, exit_, emit):
    """Oracle: score every monotone no-skip segmentation of T frames over
    the chain by direct summation.  Returns (best score, one best path,
    all path scores)."""
    T, P = emit.shape[0], len(units)
    best = -np.inf
    best_path = None
    scores = []
    # choose the P-1 advance times: positions 1..T-1, strictly increasing
    for cuts in itertools.combinations(range(1, T), P - 1):
        bounds = (0,) + cuts + (T,)
        total = 0.0
        path = []
        for p in range(P):
            seg = range(bounds[p], bounds[p + 1])
            for t in seg:
                total += emit[t, units[p]]
            total += (len(seg) - 1) * stay[units[p]]
            total += exit_[units[p]]
            path.extend([p] * len(seg))
        scores.append(total)
        if total > best:
            best, best_path = total, path
    return best, best_path, scores


class TestBuildGraph:
    def test_single_unit_word(self, rng):
        models = random_model_set(rng, 4, 2)
        graph = build_graph(["W"], Dictionary({"W": (3,)}), models)
        assert graph.n_nodes == 1
        assert graph.units.tolist() == [3]

    def test_two_word_chain_counts(self, rng):
        models = random_model_set(rng, 6, 2)
        d = Dictionary({"A": (0, 1), "B": (2, 3, 4)})
        graph = build_graph(["A", "B"], d, models)
        assert graph.n_nodes == 5
        assert graph.units.tolist() == [0, 1, 2, 3, 4]
        assert graph.starts.tolist() == [0, 2, 5]

    def test_out_of_dictionary_word(self, rng):
        models = random_model_set(rng, 4, 2)
        with pytest.raises(DataError, match="MISSING"):
            build_graph(["MISSING"], Dictionary({"W": (0,)}), models)

    def test_unit_out_of_model_range(self, rng):
        models = random_model_set(rng, 2, 2)
        with pytest.raises(DataError, match="unit id"):
            build_graph(["W"], Dictionary({"W": (7,)}), models)

    @pytest.mark.parametrize("transcript, culprit", [
        (["OK", "BIG", "MISSING"], "word 'BIG': unit id 7"),
        (["OK", "MISSING", "BIG"], "word 'MISSING' not in dictionary")])
    def test_first_faulty_word_is_named(self, rng, transcript, culprit):
        models = random_model_set(rng, 2, 2)
        d = Dictionary({"OK": (0, 1), "BIG": (1, 7)})
        with pytest.raises(DataError, match=culprit):
            build_graph(transcript, d, models)

    @pytest.mark.parametrize("units", [[-1], [0, 3], [3]])
    def test_chain_unit_out_of_model_range(self, rng, units):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError, match="out of range"):
            chain_graph(units, models)
        with pytest.raises(DataError, match="out of range"):
            chain_loglik(np.zeros((4, 3)), units, models)


class TestViterbi:
    def test_single_node_closed_form(self, rng):
        models = random_model_set(rng, 3, 2)
        feats = rng.normal(size=(5, 2))
        graph = chain_graph([1], models)
        path = viterbi(graph, feats, models)
        scores = models.frame_scores(feats)
        expect = (scores[:, 1].sum() + 4 * models.stay_logprob[1]
                  + models.exit_logprob[1])
        assert path.loglik == pytest.approx(expect, abs=1e-9)
        assert path.nodes.tolist() == [0] * 5

    def test_two_node_chain_matches_hand_enumeration(self, rng):
        models = random_model_set(rng, 4, 2)
        feats = rng.normal(size=(4, 2))
        units = [2, 0]
        emit = models.frame_scores(feats)
        # the three segmentations of 4 frames over 2 positions
        best = -np.inf
        for k in (1, 2, 3):
            s = (emit[:k, 2].sum() + (k - 1) * models.stay_logprob[2]
                 + models.exit_logprob[2]
                 + emit[k:, 0].sum() + (4 - k - 1) * models.stay_logprob[0]
                 + models.exit_logprob[0])
            best = max(best, s)
        path = viterbi(chain_graph(units, models), feats, models)
        assert path.loglik == pytest.approx(best, abs=1e-12)

    def test_exhaustive_oracle(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n_units = int(rng.integers(2, 5))
            models = random_model_set(rng, n_units, 2)
            P = int(rng.integers(1, 4))
            units = rng.integers(0, n_units, size=P).tolist()
            T = int(rng.integers(P, 7))
            feats = rng.normal(size=(T, 2)) * 2
            emit = models.frame_scores(feats)
            oracle, oracle_path, all_scores = enumerate_chain_paths(
                units, models.stay_logprob, models.exit_logprob, emit)
            path = viterbi(chain_graph(units, models), feats, models)
            assert path.loglik == pytest.approx(oracle, abs=1e-9)
            # dominance over every explicitly enumerated path
            assert all(path.loglik >= s - 1e-9 for s in all_scores)
            # with a unique optimum the decoder must return exactly it
            # (exact ties, e.g. repeated units in the chain, are broken
            # deterministically toward staying and need not match the
            # oracle's enumeration order)
            if sum(s > oracle - 1e-12 for s in all_scores) == 1:
                assert path.nodes.tolist() == oracle_path

    def test_path_is_monotone_without_skips(self, rng):
        models = random_model_set(rng, 4, 2)
        feats = rng.normal(size=(12, 2))
        path = viterbi(chain_graph([0, 1, 2, 3], models), feats, models)
        diffs = np.diff(path.nodes)
        assert np.all((diffs == 0) | (diffs == 1))
        assert path.nodes[0] == 0 and path.nodes[-1] == 3

    def test_self_consistency(self, rng):
        models = random_model_set(rng, 3, 2)
        feats = rng.normal(size=(8, 2))
        graph = chain_graph([1, 0, 2], models)
        scores = models.frame_scores(feats)
        path = viterbi(graph, feats, models)
        assert path_loglik(graph, path.nodes, scores) == pytest.approx(
            path.loglik, abs=1e-9)

    def test_too_few_frames_raises_no_path(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(NoPathError):
            viterbi(chain_graph([0, 1, 2], models), rng.normal(size=(2, 2)),
                    models)

    def test_chain_loglik_infeasible_is_neg_inf(self, rng):
        models = random_model_set(rng, 3, 2)
        scores = models.frame_scores(rng.normal(size=(1, 2)))
        assert chain_loglik(scores, [0, 1], models) == -np.inf


class TestFreeLoop:
    def test_single_frame_picks_best_unit(self, rng):
        models = random_model_set(rng, 4, 2)
        x = models.frame_scores(rng.normal(size=(1, 2)))
        labels, ll = free_loop_decode(x, models)
        scores = x[0] + models.exit_logprob
        assert labels[0] == int(np.argmax(scores))
        assert ll == pytest.approx(float(np.max(scores)), abs=1e-12)

    def test_collapse_labels(self):
        assert collapse_labels([1, 1, 2, 2, 2, 1]) == (1, 2, 1)
        assert collapse_labels([3]) == (3,)

    def test_free_loop_beats_every_chain(self, rng):
        # the unconstrained optimum dominates any fixed unit sequence
        models = random_model_set(rng, 3, 2)
        scores = models.frame_scores(rng.normal(size=(5, 2)) * 2)
        _, best = free_loop_decode(scores, models)
        for seq in itertools.product(range(3), repeat=3):
            seq = collapse_labels(seq)
            assert best >= chain_loglik(scores, seq, models) - 1e-9


class TestForceAlign:
    def test_single_unit_pronunciation(self, rng):
        models = random_model_set(rng, 3, 2)
        utt = Utterance("u", rng.normal(size=(6, 2)), ("W",))
        labels, spans, _ = force_align(utt, Dictionary({"W": (2,)}), models)
        assert labels.tolist() == [2] * 6
        assert spans[0].word == "W"
        assert (spans[0].start, spans[0].end) == (0, 6)

    def test_labels_equal_viterbi_path_units(self, rng):
        models = random_model_set(rng, 4, 2)
        utt = Utterance("u", rng.normal(size=(9, 2)), ("A", "B"))
        d = Dictionary({"A": (1, 3), "B": (0,)})
        graph = build_graph(utt.transcript, d, models)
        path = viterbi(graph, utt.features, models)
        labels, spans, loglik = force_align(utt, d, models)
        np.testing.assert_array_equal(labels, graph.units[path.nodes])
        assert loglik == path.loglik
        assert spans[0].start == 0 and spans[-1].end == 9

    def test_synth_frame_agreement(self):
        spec = SynthSpec(n_words=6, n_units=4, utts_per_word=6,
                         frames_per_unit=(4, 8), separation=6.0)
        corpus, truth = synth_corpus(spec, seed=31)
        models = _models_from_truth(truth)
        d = Dictionary(truth.true_dictionary)
        agree = total = 0
        for utt in corpus.utterances:
            labels, _, _ = force_align(utt, d, models)
            ref = truth.true_frame_labels[utt.id]
            agree += int((labels == ref).sum())
            total += len(ref)
        assert agree / total >= 0.90


def _models_from_truth(truth):
    return gaussian_model_set(truth.true_means, truth.true_vars)


class TestViterbiTrainStep:
    def test_single_utterance_single_unit(self, rng):
        models = random_model_set(rng, 1, 2, max_comps=1)
        feats = rng.normal(size=(7, 2))
        corpus = Corpus((Utterance("u", feats, ("W",)),))
        d = Dictionary({"W": (0,)})
        new_models, loglik, starved = viterbi_train_step(corpus, d, models)
        np.testing.assert_allclose(new_models.means[0, 0],
                                   feats.mean(axis=0), atol=1e-12)
        assert starved == 0
        assert loglik == pytest.approx(
            viterbi(chain_graph([0], models), feats, models).loglik)

    def test_total_loglik_non_decreasing(self):
        spec = SynthSpec(n_words=4, n_units=3, utts_per_word=5,
                         frames_per_unit=(3, 6))
        corpus, truth = synth_corpus(spec, seed=8)
        models = _perturbed_truth_models(truth, scale=1.5)
        d = Dictionary(truth.true_dictionary)
        prev = -np.inf
        for _ in range(10):
            models, loglik, _ = viterbi_train_step(corpus, d, models)
            assert loglik >= prev - 1e-8 * max(1.0, abs(prev))
            prev = loglik

    def test_synth_recovery_from_lbg(self):
        spec = SynthSpec(n_words=8, n_units=4, utts_per_word=10,
                         frames_per_unit=(3, 6))
        corpus, truth = synth_corpus(spec, seed=13)
        frames = np.vstack([u.features for u in corpus.utterances])
        cents = lbg_cluster(frames, 4, seed=0)
        models = _models_from_centroids(frames, cents)
        # dictionary: truth relabeled onto the learned centroid ids
        unit_map = {}
        d2 = np.linalg.norm(truth.true_means[:, None] - cents[None, :],
                            axis=2)
        rows, cols = linear_sum_assignment(d2)
        unit_map = dict(zip(rows, cols))
        entries = {w: tuple(unit_map[u] for u in pron)
                   for w, pron in truth.true_dictionary.items()}
        d = Dictionary(entries)
        for _ in range(5):
            models, _, _ = viterbi_train_step(corpus, d, models)
        for true_u, learned_u in unit_map.items():
            got = models.means[learned_u, 0]
            dist = np.linalg.norm(got - truth.true_means[true_u])
            assert dist < 0.2 * np.sqrt(truth.true_vars[true_u].max())

    def test_deterministic(self, rng):
        spec = SynthSpec(n_words=3, n_units=3, utts_per_word=4)
        corpus, truth = synth_corpus(spec, seed=4)
        models = _models_from_truth(truth)
        d = Dictionary(truth.true_dictionary)
        a = viterbi_train_step(corpus, d, models)
        b = viterbi_train_step(corpus, d, models)
        assert a[1] == b[1]
        np.testing.assert_array_equal(a[0].means, b[0].means)
        np.testing.assert_array_equal(a[0].variances, b[0].variances)
        np.testing.assert_array_equal(a[0].weights, b[0].weights)

    def test_starved_unit_keeps_parameters(self, rng):
        models = random_model_set(rng, 3, 2, max_comps=1)
        feats = rng.normal(size=(5, 2))
        corpus = Corpus((Utterance("u", feats, ("W",)),))
        d = Dictionary({"W": (1,)})  # units 0 and 2 never aligned
        new_models, _, starved = viterbi_train_step(corpus, d, models)
        assert starved == 2
        np.testing.assert_array_equal(new_models.means[0, 0],
                                      models.means[0, 0])


def _models_from_centroids(frames, cents):
    assign = nearest_centroid(frames, cents)
    floor = 1e-3 * frames.var(axis=0)
    variances = [np.maximum(frames[assign == i].var(axis=0), floor)
                 for i in range(len(cents))]
    return gaussian_model_set(cents, variances, var_floor=floor)


def _perturbed_truth_models(truth, scale):
    rng = np.random.default_rng(0)
    means = [truth.true_means[u] + rng.normal(size=2)
             for u in range(truth.true_unit_count)]
    return gaussian_model_set(means, truth.true_vars * scale)


class TestTransitionCounts:
    def test_basic_runs(self):
        stays, exits = transition_counts_from_labels([0, 0, 1, 1, 1, 0], 2)
        assert stays.tolist() == [1 + 0, 2]   # run of 2, run of 1, run of 3
        assert exits.tolist() == [2, 1]

    @staticmethod
    def run_length_counts(labels, n_units):
        """Reference: walk the labeling run by run."""
        stays, exits = np.zeros(n_units), np.zeros(n_units)
        run_unit, run_len = int(labels[0]), 1
        for lab in labels[1:]:
            if lab == run_unit:
                run_len += 1
            else:
                stays[run_unit] += run_len - 1
                exits[run_unit] += 1
                run_unit, run_len = int(lab), 1
        stays[run_unit] += run_len - 1
        exits[run_unit] += 1
        return stays, exits

    def test_equals_run_length_walk(self):
        rng = np.random.default_rng(7)
        cases = [[2], [1] * 9, [0, 0, 0, 3]]
        for _ in range(200):
            n_runs = int(rng.integers(1, 8))
            cases.append(np.repeat(rng.integers(0, 5, size=n_runs),
                                   rng.integers(1, 5, size=n_runs)))
        for labels in cases:
            got = transition_counts_from_labels(labels, 5)
            want = self.run_length_counts(np.asarray(labels), 5)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tolist() == w.tolist()


class TestDictionaryIO:
    def test_round_trip_exact(self, tmp_path):
        d = Dictionary({"HELLO": (17, 3, 3, 240), "WORLD": (0,)})
        path = tmp_path / "d.txt"
        write_dictionary(d, path)
        text = path.read_text()
        assert "HELLO\ta17 a3 a3 a240" in text
        again = read_dictionary(path)
        assert again.entries == d.entries

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# comment\nW\ta1 a2\n")
        assert read_dictionary(path).entries == {"W": (1, 2)}

    def test_bad_token(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("W\tb1\n")
        with pytest.raises(DataError):
            read_dictionary(path)

    def test_empty_pronunciation_rejected(self):
        with pytest.raises(DataError):
            Dictionary({"W": ()})
