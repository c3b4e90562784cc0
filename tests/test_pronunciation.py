import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sublex import pronunciation
from sublex.acoustic import make_transitions
from sublex.corpus import Corpus, Utterance
from sublex.errors import DataError, NumericError
from sublex.hmm import (Dictionary, chain_loglik, collapse_labels,
                        free_loop_decode)
from sublex.mlp import PosteriorScorer, init_mlp
from sublex.pronunciation import (MasterUtterance, brute_force_pronunciation,
                                  collect_word_segments,
                                  estimate_pronunciation,
                                  estimate_pronunciations, joint_viterbi2,
                                  rescore_pronunciation,
                                  rescore_pronunciations, update_dictionary)

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


def random_scores(rng, models, t, scale=1.0):
    """Emission scores of a random t-frame utterance."""
    return models.frame_scores(rng.normal(size=(t, models.dim)) * scale)


def dyadic_scorer(n_units):
    """Transitions on a power-of-two grid: with scores on such a grid too,
    every path sum is exact and equal-scoring paths tie exactly."""
    return SimpleNamespace(n_units=n_units,
                           stay_logprob=np.full(n_units, -1.0),
                           exit_logprob=np.full(n_units, -0.5))


def assert_master_sums(master, utts):
    """A master against its members' own score rows, compared with ==:
    each member's frames lie in strictly increasing columns from the
    first (one frame per member and column), ``counts`` is the number of
    frames per column, none empty, and a column's emission is the sum of
    its frames' rows in member order."""
    assert master.n_merged == len(utts)
    expected = np.zeros((master.n_columns, utts[0].shape[1]))
    for cols, u in zip(master.frame_cols, utts):
        assert len(cols) == len(u)
        assert cols[0] == 0
        assert np.all(np.diff(cols) > 0)
        expected[cols] += u
    assert np.array_equal(master.counts, np.bincount(
        np.concatenate(master.frame_cols), minlength=master.n_columns))
    assert master.counts.min() >= 1
    assert np.array_equal(master.emissions, expected)


class TestJointViterbi2:
    def test_identical_utterances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            models = random_model_set(rng, int(rng.integers(2, 5)), 2)
            u = random_scores(rng, models, int(rng.integers(1, 9)), 2)
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
            u1 = random_scores(rng, models, t1, 2)
            u2 = random_scores(rng, models, t2, 2)
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
        u1 = random_scores(rng, models, 1)
        u2 = random_scores(rng, models, 1)
        ja = joint_viterbi2(u1, u2, models)
        combined = u1[0] + u2[0] + 2 * models.exit_logprob
        assert ja.common_units == (int(np.argmax(combined)),)
        assert ja.joint_loglik == pytest.approx(float(np.max(combined)),
                                                abs=1e-12)

    def test_symmetry_up_to_tie_breaking(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            models = random_model_set(rng, 3, 2)
            u1 = random_scores(rng, models, int(rng.integers(1, 6)))
            u2 = random_scores(rng, models, int(rng.integers(1, 6)))
            a = joint_viterbi2(u1, u2, models).joint_loglik
            b = joint_viterbi2(u2, u1, models).joint_loglik
            assert a == pytest.approx(b, abs=1e-9)

    def test_common_units_never_repeat(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            models = random_model_set(rng, 4, 2)
            u1 = random_scores(rng, models, int(rng.integers(2, 8)))
            u2 = random_scores(rng, models, int(rng.integers(2, 8)))
            units = joint_viterbi2(u1, u2, models).common_units
            assert all(a != b for a, b in zip(units, units[1:]))

    def test_joint_score_decomposes_per_utterance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            models = random_model_set(rng, 3, 2)
            u1 = random_scores(rng, models, int(rng.integers(1, 7)))
            u2 = random_scores(rng, models, int(rng.integers(1, 7)))
            ja = joint_viterbi2(u1, u2, models)
            s1 = per_utterance_path_score(ja.segmentations[0], u1, models)
            s2 = per_utterance_path_score(ja.segmentations[1], u2, models)
            assert ja.joint_loglik == pytest.approx(s1 + s2, abs=1e-9)
            # each segmentation collapses to the common sequence
            assert collapse_labels(ja.segmentations[0]) == ja.common_units
            assert collapse_labels(ja.segmentations[1]) == ja.common_units
            # constrained re-scoring can only match or exceed
            c1 = chain_loglik(u1, ja.common_units, models)
            c2 = chain_loglik(u2, ja.common_units, models)
            assert c1 + c2 >= ja.joint_loglik - 1e-9
            assert c1 >= s1 - 1e-9 and c2 >= s2 - 1e-9

    def test_tied_switch_sources_rescore_exactly(self):
        # scores on a 1.0 grid and dyadic transitions: many switch sources
        # tie, and the backtrace must still return segmentations whose
        # exact path scores add up to the joint optimum
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            scorer = dyadic_scorer(n)
            u1 = rng.integers(-3, 1, size=(int(rng.integers(1, 9)), n))
            u2 = rng.integers(-3, 1, size=(int(rng.integers(1, 9)), n))
            u1, u2 = u1.astype(np.float64), u2.astype(np.float64)
            ja = joint_viterbi2(u1, u2, scorer)
            s1 = per_utterance_path_score(ja.segmentations[0], u1, scorer)
            s2 = per_utterance_path_score(ja.segmentations[1], u2, scorer)
            assert s1 + s2 == ja.joint_loglik
            assert collapse_labels(ja.segmentations[0]) == ja.common_units
            assert collapse_labels(ja.segmentations[1]) == ja.common_units
            _, best = brute_force_pronunciation(
                [u1, u2], scorer, min(len(u1), len(u2), 4))
            assert ja.joint_loglik >= best

    def test_master_frames_partition(self):
        # unquantized scores and 3-5 folds, so a column of three or more
        # members sums to a different float when its rows are added in
        # another order (numpy 2.4's reduceat adds them last row first)
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            models = random_model_set(rng, n, 2)
            utts = [random_scores(rng, models, int(rng.integers(2, 10)), 2)
                    for _ in range(int(rng.integers(4, 7)))]
            master = utts[0]
            for k in range(1, len(utts)):
                master = joint_viterbi2(master, utts[k], models).master
                assert master.emissions.shape == (master.n_columns, n)
                assert_master_sums(master, utts[:k + 1])

    def test_dimension_mismatch(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError, match="dimension"):
            joint_viterbi2(rng.normal(size=(3, 3)), rng.normal(size=(3, 5)),
                           models)
        with pytest.raises(DataError, match="dimension"):
            joint_viterbi2(np.zeros((0, 3)), rng.normal(size=(3, 3)), models)


def random_fold_inputs(rng, n_words, grid):
    """A scorer and, per word, a master (the fold of 1-4 random score
    matrices, so words differ in columns, members and switch cost) and
    the next utterance.  Scores lie on ``grid`` (ties) unless it is None;
    some instances have a unit that cannot stay or cannot exit."""
    n = int(rng.integers(1, 6))
    stay = np.log(rng.uniform(0.2, 0.8, size=n))
    exit_ = np.log1p(-np.exp(stay))
    if grid is not None:
        stay, exit_ = np.full(n, -1.0), np.full(n, -0.5)
    if rng.random() < 0.2:
        stay[rng.integers(n)] = -np.inf
    if rng.random() < 0.2:
        exit_[rng.integers(n)] = -np.inf
    scorer = SimpleNamespace(n_units=n, stay_logprob=stay, exit_logprob=exit_)

    def scores(t):
        u = rng.normal(size=(t, n)) * 3
        return u if grid is None else np.round(u / grid) * grid

    masters, e2s = [], []
    while len(masters) < n_words:
        master = pronunciation._as_master(scores(int(rng.integers(1, 12))), n)
        try:
            for _ in range(int(rng.integers(0, 4))):
                master = joint_viterbi2(master, scores(
                    int(rng.integers(1, 9))), scorer).master
        except NumericError:          # no path through a stuck unit
            continue
        masters.append(master)
        e2s.append(scores(int(rng.integers(1, 12))))
    return scorer, masters, e2s


def assert_same_master(a: MasterUtterance, b: MasterUtterance):
    assert a.n_merged == b.n_merged
    for x, y in zip((a.emissions, a.counts, a.unit_seq) + a.frame_cols,
                    (b.emissions, b.counts, b.unit_seq) + b.frame_cols):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


class TestBatchedFold:
    """The batched engine against its one-word calls, compared with ==."""

    @pytest.mark.parametrize("grid", [0.5, 1.0, None])
    @pytest.mark.parametrize("block", [None, 1, 2000])
    def test_batch_equals_word_by_word(self, monkeypatch, grid, block):
        # block=1 runs one word per bucket, 2000 mixes bucket sizes
        if block is not None:
            monkeypatch.setattr(pronunciation, "BLOCK_CELLS", block)
        rng = np.random.default_rng(int(100 * (grid or 0)) + (block or 3))
        for _ in range(15):
            scorer, masters, e2s = random_fold_inputs(
                rng, int(rng.integers(1, 9)), grid)
            single = []
            for master, e2 in zip(masters, e2s):
                try:
                    single.append(joint_viterbi2(master, e2, scorer))
                except NumericError:
                    single.append(None)
            keep = [b for b, ja in enumerate(single) if ja is not None]
            folded, logliks = pronunciation._fold(
                [masters[b] for b in keep], [e2s[b] for b in keep], scorer)
            for b, master, loglik in zip(keep, folded, logliks):
                assert loglik == single[b].joint_loglik
                assert collapse_labels(master.unit_seq) == \
                    single[b].common_units
                assert_same_master(master, single[b].master)

    @pytest.mark.parametrize("grid", [0.5, 1.0])
    def test_trellis_equals_word_by_word(self, grid):
        # every cell a word owns holds the score and move of its own
        # unpadded trellis, and its padding cells stay -inf
        rng = np.random.default_rng(int(10 * grid))
        for _ in range(20):
            scorer, masters, e2s = random_fold_inputs(rng, 5, grid)
            e1s = [m.emissions for m in masters]
            m1s = [m.counts.astype(np.float64) for m in masters]
            sw = np.array([(m.n_merged + 1) * scorer.exit_logprob
                           for m in masters])
            C = max(map(len, e1s))
            T2 = max(map(len, e2s))
            score, move = pronunciation._pair_dp(
                pronunciation._pad(e1s, C, -np.inf),
                pronunciation._pad(m1s, C, 1.0),
                pronunciation._pad(e2s, T2, -np.inf),
                scorer.stay_logprob, sw)
            for b, (e1, m1, e2) in enumerate(zip(e1s, m1s, e2s)):
                c, t = len(e1), len(e2)
                one_score, one_move = pronunciation._pair_dp(
                    e1[None], m1[None], e2[None], scorer.stay_logprob,
                    sw[b:b + 1])
                assert np.array_equal(score[b, :c + t + 1, :t + 1],
                                      one_score[0])
                d, j = np.indices((c + t + 1, t + 1))
                own = (j >= 1) & (d - j >= 1) & (d - j <= c)
                assert np.array_equal(move[b, :c + t + 1, :t + 1][own],
                                      one_move[0][own])

    def test_fold_step_memory_is_bounded(self):
        # the wide benchmark's shape: 40 words, 16 units, masters of up to
        # 68 columns and utterances of up to 33 frames; the bucket cap
        # keeps the peak near one bucket's trellis whatever the word count
        rng = np.random.default_rng(3)
        n = 16
        scorer = SimpleNamespace(n_units=n, stay_logprob=np.full(n, -0.7),
                                 exit_logprob=np.full(n, -0.7))
        masters = [pronunciation._as_master(
            rng.normal(size=(int(rng.integers(40, 69)), n)), n)
            for _ in range(40)]
        e2s = [rng.normal(size=(int(rng.integers(20, 34)), n))
               for _ in range(40)]
        tracemalloc.start()
        try:
            pronunciation._fold(masters, e2s, scorer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


class TestEstimatePronunciation:
    def test_k1_equals_collapsed_free_loop(self, rng):
        models = random_model_set(rng, 4, 2)
        u = random_scores(rng, models, 9, 2)
        labels, ll = free_loop_decode(u, models)
        pron, loglik = estimate_pronunciation([u], models)
        assert pron == collapse_labels(labels)
        assert loglik == pytest.approx(ll, abs=1e-12)

    def test_k2_equals_pairwise(self, rng):
        models = random_model_set(rng, 3, 2)
        u1 = random_scores(rng, models, 6)
        u2 = random_scores(rng, models, 4)
        ja = joint_viterbi2(u1, u2, models)  # u1 longer: matches fold order
        pron, loglik = estimate_pronunciation([u2, u1], models)
        assert pron == ja.common_units
        assert loglik == pytest.approx(ja.joint_loglik, abs=1e-12)

    def test_loglik_is_the_rescored_likelihood(self):
        # from three utterances on, the fold's own score is not a
        # likelihood; the returned value is the exact one
        rng = np.random.default_rng(7)
        for _ in range(30):
            models = random_model_set(rng, 3, 2)
            utts = [random_scores(rng, models, int(rng.integers(2, 8)))
                    for _ in range(int(rng.integers(3, 5)))]
            pron, loglik = estimate_pronunciation(utts, models)
            assert loglik == sum(chain_loglik(u, pron, models)
                                 for u in utts)

    def test_batched_rescoring_equals_per_utterance_sums(self, rng):
        # every example of every word in one pass; each word's sum runs in
        # example order, and examples too short for the word score -inf
        models = random_model_set(rng, 3, 2)
        # (examples, fewest frames): D and E always fit, and their long
        # sums would round differently in pairwise order
        jobs = {w: ([random_scores(rng, models, int(rng.integers(t, 9)))
                     for _ in range(n)],
                    random_no_repeat_seq(rng, 3, int(rng.integers(1, 5))))
                for w, n, t in (("A", 1, 1), ("B", 3, 1), ("C", 5, 1),
                                ("D", 20, 4), ("E", 40, 4), ("F", 2, 1))}
        got = rescore_pronunciations(jobs, models)
        assert list(got) == list(jobs)
        for word, (utts, pron) in jobs.items():
            assert got[word] == float(sum(chain_loglik(u, pron, models)
                                          for u in utts))
        assert -np.inf in got.values()

    def test_batched_rescoring_rejects_nan(self, rng):
        models = random_model_set(rng, 3, 2)
        bad = random_scores(rng, models, 5)
        bad[3, 0] = np.nan
        with pytest.raises(NumericError):
            rescore_pronunciations(
                {"A": ([random_scores(rng, models, 4)], (1, 2)),
                 "B": ([bad], (0,))}, models)

    def test_k3_quality_against_oracle(self):
        rng = np.random.default_rng(5)
        exact = 0
        n_trials = 40
        for _ in range(n_trials):
            n = int(rng.integers(2, 4))
            models = random_model_set(rng, n, 2, max_comps=1, spread=3.0)
            seq = random_no_repeat_seq(rng, n, int(rng.integers(1, 4)))
            utts = [models.frame_scores(sample_walk(models, seq, 2, rng))
                    for _ in range(3)]
            max_len = min(min(u.shape[0] for u in utts), 4)
            pron, approx = estimate_pronunciation(utts, models)
            _, best = brute_force_pronunciation(utts, models, max_len)
            assert approx >= best - 0.03 * abs(best)
            exact += approx == pytest.approx(best, abs=1e-9)
        assert exact >= 0.8 * n_trials

    def test_merge_order_longest_first(self, rng):
        # fold order is by descending frame count, ties by input order
        models = random_model_set(rng, 3, 2)
        utts = [random_scores(rng, models, t) for t in (3, 7, 5)]
        master_pron, _ = estimate_pronunciation(utts, models)
        ja = joint_viterbi2(utts[1], utts[2], models)
        ja = joint_viterbi2(ja.master, utts[0], models)
        assert master_pron == ja.common_units

    def test_fold_chains_run_longest_first(self):
        # lengths from a small range, so equal lengths keep input order
        rng = np.random.default_rng(8)
        for _ in range(40):
            models = random_model_set(rng, 3, 2)
            words = {w: [random_scores(rng, models, int(rng.integers(2, 5)))
                         for _ in range(int(rng.integers(1, 5)))]
                     for w in "ABCD"}
            estimates = estimate_pronunciations(words, models)
            for w, utts in words.items():
                order = sorted(range(len(utts)), key=lambda k: -len(utts[k]))
                master = utts[order[0]]
                for k in order[1:]:
                    master = joint_viterbi2(master, utts[k], models).master
                if len(utts) > 1:
                    assert estimates[w][0] == collapse_labels(
                        master.unit_seq)

    def test_errors(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError):
            estimate_pronunciation([], models)
        # a feature matrix is not a score matrix of a 3-unit scorer
        with pytest.raises(DataError, match="dimension"):
            estimate_pronunciation([rng.normal(size=(4, 2))], models)
        with pytest.raises(DataError, match="dimension"):
            estimate_pronunciation([np.zeros(3)], models)


class TestBruteForce:
    def test_single_frame_single_utterance(self, rng):
        models = random_model_set(rng, 4, 2)
        u = random_scores(rng, models, 1)
        seq, score = brute_force_pronunciation([u], models, 3)
        combined = u[0] + models.exit_logprob
        assert seq == (int(np.argmax(combined)),)
        assert score == pytest.approx(float(np.max(combined)), abs=1e-12)

    def test_monotone_in_max_len(self, rng):
        models = random_model_set(rng, 3, 2)
        utts = [random_scores(rng, models, 5) for _ in range(2)]
        _, s3 = brute_force_pronunciation(utts, models, 3)
        _, s4 = brute_force_pronunciation(utts, models, 4)
        assert s4 >= s3 - 1e-12

    def test_tie_breaks_shorter_then_lexicographic(self):
        # two identical units: every sequence of the same length ties, so
        # the winner must be the shortest, lexicographically first one
        models = gaussian_model_set(np.zeros((2, 2)), np.ones((2, 2)))
        rng = np.random.default_rng(0)
        utts = [random_scores(rng, models, 3)]
        seq, _ = brute_force_pronunciation(utts, models, 3)
        assert seq == (0,)

    def test_enumeration_guard(self, rng):
        models = random_model_set(rng, 10, 2)
        with pytest.raises(DataError, match="guard"):
            brute_force_pronunciation([random_scores(rng, models, 3)],
                                      models, 7)


def posterior_scorer(n_units, dim, context=2, seed=0):
    """A randomly initialized network scorer: its frame scores depend on
    the neighbouring frames inside the context window."""
    net = init_mlp((dim * (2 * context + 1), 6, n_units), context, seed)
    return PosteriorScorer(net, np.full(n_units, 1.0 / n_units),
                           *make_transitions(0.6, n_units))


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
            [models.frame_scores(u.features) for u in corpus.utterances],
            models)
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
        new = update_dictionary(corpus, models, Dictionary({"W": (0,)}),
                                min_examples=2, max_units=8, report=rows)
        assert len(rows) == 1
        word, k_used, length, loglik = rows[0].split("\t")
        assert word == "W" and int(k_used) == 5 and int(length) >= 1
        scores = [models.frame_scores(u.features) for u in corpus.utterances]
        assert float(loglik) == pytest.approx(
            rescore_pronunciation(scores, new["W"], models), abs=1e-6)

    def test_too_long_estimate_keeps_current_entry(self, rng, caplog):
        # far-apart units alternating: every estimate has 4 units
        far = gaussian_model_set([[0.0, 0.0], [10.0, 10.0]], np.ones((2, 2)))
        corpus = Corpus(tuple(
            Utterance(f"u{i}", sample_walk(far, (0, 1, 0, 1), 2, rng),
                      ("W",)) for i in range(3)))
        rows: list[str] = []
        with caplog.at_level(logging.WARNING, logger="sublex.pronunciation"):
            new = update_dictionary(corpus, far, Dictionary({"W": (1,)}),
                                    min_examples=2, max_units=3, report=rows)
        assert new["W"] == (1,)
        assert rows == ["W\t0\t1\t-"]
        assert "'W'" in caplog.text and "4 units" in caplog.text
        # a word with no entry to keep still fails
        with pytest.raises(DataError, match="max_units"):
            update_dictionary(corpus, far, Dictionary({}), min_examples=2,
                              max_units=3)

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

    def test_batched_words_equal_per_word_estimates(self, rng, monkeypatch):
        # words with 1, 2, 3 and 6 examples: later fold steps hold fewer
        # words, and the one-example word is free-loop decoded
        models = random_model_set(rng, 4, 2, max_comps=1)
        seqs = {"A": (0, 1), "B": (2,), "C": (1, 3), "D": (3, 0, 2)}
        counts = {"A": 1, "B": 2, "C": 3, "D": 6}
        corpus = Corpus(tuple(
            Utterance(f"{w}{i}", sample_walk(models, seqs[w], 3, rng), (w,))
            for w in seqs for i in range(counts[w])))
        current = Dictionary({w: (0,) for w in seqs})
        segments = collect_word_segments(corpus, current, models)
        per_word = {w: estimate_pronunciation(segments[w], models)
                    for w in sorted(seqs)}
        rows_per_word = [f"{w}\t{counts[w]}\t{len(pron)}\t{loglik:.6f}"
                         for w, (pron, loglik) in per_word.items()]
        for block in (pronunciation.BLOCK_CELLS, 1):
            monkeypatch.setattr(pronunciation, "BLOCK_CELLS", block)
            assert estimate_pronunciations(segments, models) == per_word
            rows: list[str] = []
            new = update_dictionary(corpus, models, current, min_examples=1,
                                    max_units=8, report=rows)
            assert new.entries == {w: p for w, (p, _) in per_word.items()}
            assert rows == rows_per_word

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


class TestNetworkScores:
    def test_segments_are_slices_of_whole_utterance_scores(self, rng):
        scorer = posterior_scorer(3, 2)
        utts = (Utterance("s", rng.normal(size=(7, 2)), ("A",)),
                Utterance("m", rng.normal(size=(12, 2)), ("A", "B")))
        dictionary = Dictionary({"A": (0, 1), "B": (2,)})
        segments = collect_word_segments(Corpus(utts), dictionary, scorer)
        single = scorer.frame_scores(utts[0].features)
        whole = scorer.frame_scores(utts[1].features)
        assert len(segments["A"]) == 2 and len(segments["B"]) == 1
        np.testing.assert_array_equal(segments["A"][0], single)
        # the multi-word segments tile the utterance's own score rows
        np.testing.assert_array_equal(
            np.vstack([segments["A"][1], segments["B"][0]]), whole)
        # scoring a cut segment on its own clips the context window
        cut = len(segments["A"][1])
        assert not np.array_equal(
            scorer.frame_scores(utts[1].features[:cut]), segments["A"][1])

    def test_fold_emissions_gather_per_utterance_scores(self, rng):
        scorer = posterior_scorer(3, 2, seed=1)
        utts = [scorer.frame_scores(rng.normal(size=(t, 2)))
                for t in (9, 7, 6)]
        ja = joint_viterbi2(utts[0], utts[1], scorer)
        master = joint_viterbi2(ja.master, utts[2], scorer).master
        assert_master_sums(master, utts)
