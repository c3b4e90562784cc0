import numpy as np
import pytest

from sublex.corpus import Corpus, SynthSpec, Utterance, synth_corpus
from sublex.errors import DataError
from sublex.hmm import (Dictionary, chain_loglik, collapse_labels,
                        free_loop_decode)
from sublex.pronunciation import (MasterUtterance, brute_force_pronunciation,
                                  estimate_pronunciation, joint_viterbi2,
                                  rescore_pronunciation, update_dictionary)

from conftest import (gaussian_model_set, random_model_set,
                      random_no_repeat_seq, sample_walk)


def per_utterance_path_score(labels, frame_scores, models):
    """Direct 1-D HMM path score of a frame labeling."""
    total = float(frame_scores[0, labels[0]])
    for t in range(1, len(labels)):
        if labels[t] == labels[t - 1]:
            total += models.stay_logprob[labels[t]]
        else:
            total += models.exit_logprob[labels[t - 1]]
        total += float(frame_scores[t, labels[t]])
    total += models.exit_logprob[labels[-1]]
    return total


class TestJointViterbi2:
    def test_identical_utterances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            models = random_model_set(rng, int(rng.integers(2, 5)), 2)
            u = rng.normal(size=(int(rng.integers(1, 9)), 2)) * 2
            labels, single = free_loop_decode(u, models)
            ja = joint_viterbi2(u, u, models)
            assert ja.joint_loglik == pytest.approx(2 * single, abs=1e-9)
            assert ja.common_units == collapse_labels(labels)

    def test_matches_brute_force_both_directions(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            models = random_model_set(rng, n, 2)
            t1 = int(rng.integers(1, 7))
            t2 = int(rng.integers(1, 7))
            u1 = rng.normal(size=(t1, 2)) * 2
            u2 = rng.normal(size=(t2, 2)) * 2
            ja = joint_viterbi2(u1, u2, models)
            seq, best = brute_force_pronunciation([u1, u2], models,
                                                  min(t1, t2))
            # the DP optimum equals the enumerated optimum, and the DP's
            # sequence re-scores to the same joint value
            assert ja.joint_loglik == pytest.approx(best, abs=1e-9)
            assert rescore_pronunciation([u1, u2], ja.common_units,
                                         models) == pytest.approx(
                best, abs=1e-9)

    def test_two_single_frame_utterances(self, rng):
        models = random_model_set(rng, 5, 2)
        u1 = rng.normal(size=(1, 2))
        u2 = rng.normal(size=(1, 2))
        ja = joint_viterbi2(u1, u2, models)
        combined = (models.frame_scores(u1)[0] + models.frame_scores(u2)[0]
                    + 2 * models.exit_logprob)
        assert ja.common_units == (int(np.argmax(combined)),)
        assert ja.joint_loglik == pytest.approx(float(np.max(combined)),
                                                abs=1e-12)

    def test_symmetry_up_to_tie_breaking(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            models = random_model_set(rng, 3, 2)
            u1 = rng.normal(size=(int(rng.integers(1, 6)), 2))
            u2 = rng.normal(size=(int(rng.integers(1, 6)), 2))
            a = joint_viterbi2(u1, u2, models).joint_loglik
            b = joint_viterbi2(u2, u1, models).joint_loglik
            assert a == pytest.approx(b, abs=1e-9)

    def test_common_units_never_repeat(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            models = random_model_set(rng, 4, 2)
            u1 = rng.normal(size=(int(rng.integers(2, 8)), 2))
            u2 = rng.normal(size=(int(rng.integers(2, 8)), 2))
            units = joint_viterbi2(u1, u2, models).common_units
            assert all(a != b for a, b in zip(units, units[1:]))

    def test_joint_score_decomposes_per_utterance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            models = random_model_set(rng, 3, 2)
            u1 = rng.normal(size=(int(rng.integers(1, 7)), 2))
            u2 = rng.normal(size=(int(rng.integers(1, 7)), 2))
            ja = joint_viterbi2(u1, u2, models)
            s1 = per_utterance_path_score(ja.segmentations[0],
                                          models.frame_scores(u1), models)
            s2 = per_utterance_path_score(ja.segmentations[1],
                                          models.frame_scores(u2), models)
            assert ja.joint_loglik == pytest.approx(s1 + s2, abs=1e-9)
            # each segmentation collapses to the common sequence
            assert collapse_labels(ja.segmentations[0]) == ja.common_units
            assert collapse_labels(ja.segmentations[1]) == ja.common_units
            # constrained re-scoring can only match or exceed
            c1 = chain_loglik(u1, ja.common_units, models)
            c2 = chain_loglik(u2, ja.common_units, models)
            assert c1 + c2 >= ja.joint_loglik - 1e-9
            assert c1 >= s1 - 1e-9 and c2 >= s2 - 1e-9

    def test_master_frames_partition(self, rng):
        models = random_model_set(rng, 3, 2)
        u1 = rng.normal(size=(5, 2))
        u2 = rng.normal(size=(4, 2))
        master = joint_viterbi2(u1, u2, models).master
        assert master.n_merged == 2
        assert master.frames.shape[0] == 9
        for slot, n in ((0, 5), (1, 4)):
            rows = master.member_frame[master.member_utt == slot]
            assert sorted(rows.tolist()) == list(range(n))
        counts = master.column_counts()
        assert counts.sum() == 9 and counts.min() >= 1

    def test_dimension_mismatch(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError, match="dimension"):
            joint_viterbi2(rng.normal(size=(3, 2)), rng.normal(size=(3, 5)),
                           models)


class TestEstimatePronunciation:
    def test_k1_equals_collapsed_free_loop(self, rng):
        models = random_model_set(rng, 4, 2)
        u = rng.normal(size=(9, 2)) * 2
        labels, ll = free_loop_decode(u, models)
        pron, loglik = estimate_pronunciation([u], models, 16)
        assert pron == collapse_labels(labels)
        assert loglik == pytest.approx(ll, abs=1e-12)

    def test_k2_equals_pairwise(self, rng):
        models = random_model_set(rng, 3, 2)
        u1 = rng.normal(size=(6, 2))
        u2 = rng.normal(size=(4, 2))
        ja = joint_viterbi2(u1, u2, models)  # u1 longer: matches fold order
        pron, loglik = estimate_pronunciation([u2, u1], models, 16)
        assert pron == ja.common_units
        assert loglik == pytest.approx(ja.joint_loglik, abs=1e-12)

    def test_k3_quality_against_oracle(self):
        rng = np.random.default_rng(5)
        exact = 0
        n_trials = 40
        for _ in range(n_trials):
            n = int(rng.integers(2, 4))
            models = random_model_set(rng, n, 2, max_comps=1, spread=3.0)
            seq = random_no_repeat_seq(rng, n, int(rng.integers(1, 4)))
            utts = [sample_walk(models, seq, 2, rng) for _ in range(3)]
            max_len = min(min(u.shape[0] for u in utts), 4)
            pron, _ = estimate_pronunciation(utts, models, 16)
            approx = rescore_pronunciation(utts, pron, models)
            _, best = brute_force_pronunciation(utts, models, max_len)
            assert approx >= best - 0.03 * abs(best)
            exact += approx == pytest.approx(best, abs=1e-9)
        assert exact >= 0.8 * n_trials

    def test_merge_order_longest_first(self, rng):
        # fold order is by descending frame count, ties by input order
        models = random_model_set(rng, 3, 2)
        utts = [rng.normal(size=(t, 2)) for t in (3, 7, 5)]
        master_pron, _ = estimate_pronunciation(utts, models, 16)
        ja = joint_viterbi2(utts[1], utts[2], models)
        ja = joint_viterbi2(ja.master, utts[0], models)
        assert master_pron == ja.common_units

    def test_errors(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError):
            estimate_pronunciation([], models, 8)
        # an utterance that provably alternates between two units
        far = gaussian_model_set([[0.0, 0.0], [10.0, 10.0]], np.ones((2, 2)))
        utt = np.vstack([np.zeros((2, 2)), np.full((2, 2), 10.0)])
        with pytest.raises(DataError, match="max_units"):
            estimate_pronunciation([utt], far, 1)


class TestBruteForce:
    def test_single_frame_single_utterance(self, rng):
        models = random_model_set(rng, 4, 2)
        u = rng.normal(size=(1, 2))
        seq, score = brute_force_pronunciation([u], models, 3)
        combined = models.frame_scores(u)[0] + models.exit_logprob
        assert seq == (int(np.argmax(combined)),)
        assert score == pytest.approx(float(np.max(combined)), abs=1e-12)

    def test_monotone_in_max_len(self, rng):
        models = random_model_set(rng, 3, 2)
        utts = [rng.normal(size=(5, 2)) for _ in range(2)]
        _, s3 = brute_force_pronunciation(utts, models, 3)
        _, s4 = brute_force_pronunciation(utts, models, 4)
        assert s4 >= s3 - 1e-12

    def test_tie_breaks_shorter_then_lexicographic(self):
        # two identical units: every sequence of the same length ties, so
        # the winner must be the shortest, lexicographically first one
        models = gaussian_model_set(np.zeros((2, 2)), np.ones((2, 2)))
        rng = np.random.default_rng(0)
        utts = [rng.normal(size=(3, 2))]
        seq, _ = brute_force_pronunciation(utts, models, 3)
        assert seq == (0,)

    def test_enumeration_guard(self, rng):
        models = random_model_set(rng, 10, 2)
        with pytest.raises(DataError, match="guard"):
            brute_force_pronunciation([rng.normal(size=(3, 2))], models, 7)


class TestUpdateDictionary:
    def _corpus(self, rng, models, n_utts=5):
        seq = (0, 1)
        utts = tuple(
            Utterance(f"u{i}", sample_walk(models, seq, 3, rng), ("W",))
            for i in range(n_utts))
        return Corpus(utts)

    def test_single_word_equals_direct_estimate(self, rng):
        models = random_model_set(rng, 3, 2, max_comps=1)
        corpus = self._corpus(rng, models)
        current = Dictionary({"W": (0,)})
        new = update_dictionary(corpus, models, current, min_examples=2,
                                max_units=8)
        direct, _ = estimate_pronunciation(
            [u.features for u in corpus.utterances], models, 8)
        assert new["W"] == direct

    def test_below_threshold_keeps_current(self, rng):
        models = random_model_set(rng, 3, 2)
        corpus = self._corpus(rng, models, n_utts=3)
        current = Dictionary({"W": (2, 1)})
        new = update_dictionary(corpus, models, current, min_examples=10,
                                max_units=8)
        assert new["W"] == (2, 1)

    def test_missing_word_is_estimated_even_below_threshold(self, rng):
        models = random_model_set(rng, 3, 2)
        corpus = self._corpus(rng, models, n_utts=2)
        new = update_dictionary(corpus, models, Dictionary({}),
                                min_examples=10, max_units=8)
        assert "W" in new.entries

    def test_report_rows(self, rng):
        models = random_model_set(rng, 3, 2)
        corpus = self._corpus(rng, models)
        rows: list[str] = []
        update_dictionary(corpus, models, Dictionary({"W": (0,)}),
                          min_examples=2, max_units=8, report=rows)
        assert len(rows) == 1
        word, k_used, length, loglik = rows[0].split("\t")
        assert word == "W" and int(k_used) == 5 and int(length) >= 1
        float(loglik)

    def test_parallel_matches_serial(self, rng):
        models = random_model_set(rng, 3, 2, max_comps=1)
        seqs = {"A": (0, 1), "B": (2,), "C": (1, 2)}
        utts = []
        for w, seq in seqs.items():
            for i in range(4):
                utts.append(Utterance(f"{w}{i}",
                                      sample_walk(models, seq, 3, rng),
                                      (w,)))
        corpus = Corpus(tuple(utts))
        current = Dictionary({w: (0,) for w in seqs})
        serial = update_dictionary(corpus, models, current, 2, 8, threads=1)
        parallel = update_dictionary(corpus, models, current, 2, 8,
                                     threads=2)
        assert serial.entries == parallel.entries

    def test_multi_word_segments_via_alignment(self, rng):
        models = random_model_set(rng, 4, 2, max_comps=1, spread=6.0)
        seq_a, seq_b = (0, 1), (2, 3)
        utts = []
        for i in range(4):
            fa = sample_walk(models, seq_a, 3, rng)
            fb = sample_walk(models, seq_b, 3, rng)
            utts.append(Utterance(f"m{i}", np.vstack([fa, fb]), ("A", "B")))
        corpus = Corpus(tuple(utts))
        current = Dictionary({"A": seq_a, "B": seq_b})
        new = update_dictionary(corpus, models, current, min_examples=2,
                                max_units=8)
        assert new["A"] == seq_a
        assert new["B"] == seq_b
