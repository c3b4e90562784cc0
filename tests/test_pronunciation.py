import logging
import tracemalloc
import warnings
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
from sublex.pronunciation import (_LEFT, _UP, MasterUtterance,
                                  brute_force_pronunciation,
                                  collect_word_segments,
                                  estimate_pronunciations,
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


def pair_fold(u1, u2, scorer):
    """One word's pairwise joint alignment through the fold engine:
    (merged master, joint loglik)."""
    (master,), (loglik,) = pronunciation._fold(
        [pronunciation._as_master(u1)], [u2], scorer)
    return master, loglik


def fold_chain(utts, scorer):
    """The masters of a fold chain in the given order, one per step: the
    fold of utts[:2], then of utts[:3], ..."""
    master, masters = pronunciation._as_master(utts[0]), []
    for u in utts[1:]:
        (master,), _ = pronunciation._fold([master], [u], scorer)
        masters.append(master)
    return masters


def pair_steps(u1, u2, scorer):
    """(move, unit) arrays of the best joint path of one word, from the
    DP and backtrace the fold runs."""
    sw = 2 * scorer.exit_logprob[None]
    score, move = pronunciation._pair_dp(
        u1[None], np.ones((1, len(u1))), u2[None], scorer.stay_logprob, sw)
    C, T2 = len(u1), len(u2)
    best = int(np.argmax(score[0, C + T2, T2] + sw[0]))
    return pronunciation._backtrace(score[0], move[0], sw[0], C, T2, best)


def pair_labels(u1, u2, scorer):
    """Per-frame unit labels of u1 and u2 on the best joint path: u1
    takes the steps that advance it, every move but UP, and u2 every
    move but LEFT."""
    mv, units = pair_steps(u1, u2, scorer)
    return units[mv != _UP], units[mv != _LEFT]


def assert_pair_master(master, u1, u2, scorer):
    """A two-member master against the path steps, compared with ==: a
    column holds u1's next row when its step advances u1, plus u2's next
    row when it advances u2, and counts the rows it holds."""
    mv, units = pair_steps(u1, u2, scorer)
    adv1, adv2 = mv != _UP, mv != _LEFT
    expected = np.zeros((len(mv), u1.shape[1]))
    expected[adv1] = u1
    expected[adv2] += u2
    assert master.n_merged == 2
    assert np.array_equal(master.unit_seq, units)
    assert np.array_equal(master.counts, adv1.astype(np.int64) + adv2)
    assert np.array_equal(master.emissions, expected)


def assert_master_sums(master, utts):
    """A master of any depth against its members' rows: every member
    frame lies in one column, a column holds 1 to ``n_merged`` frames,
    and the columns' emissions add up to the members' rows (== when the
    scores lie on a grid on which every sum is exact)."""
    assert master.n_merged == len(utts)
    assert master.counts.sum() == sum(map(len, utts))
    assert 1 <= master.counts.min() and master.counts.max() <= len(utts)
    assert master.emissions.shape == (master.n_columns, utts[0].shape[1])
    assert np.array_equal(master.emissions.sum(axis=0),
                          sum(u.sum(axis=0) for u in utts))


def master_loglik(master, scorer):
    """The joint loglik of the path a master froze, from its columns
    alone: each column's emission, a stay per member frame of a column
    that keeps its unit, and ``n_merged`` exits at each switch and at
    the end."""
    u, n = master.unit_seq, master.n_merged
    total = float(master.emissions[0, u[0]])
    for c in range(1, master.n_columns):
        if u[c] == u[c - 1]:
            total += master.counts[c] * scorer.stay_logprob[u[c]]
        else:
            total += n * scorer.exit_logprob[u[c - 1]]
        total += master.emissions[c, u[c]]
    return total + n * scorer.exit_logprob[u[-1]]


class TestJointViterbi2:
    """The pairwise joint Viterbi alignment: one word's fold step."""

    def test_identical_utterances(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            models = random_model_set(rng, int(rng.integers(2, 5)), 2)
            u = random_scores(rng, models, int(rng.integers(1, 9)), 2)
            labels, single = free_loop_decode(u, models)
            master, loglik = pair_fold(u, u, models)
            assert loglik == pytest.approx(2 * single, abs=1e-9)
            assert collapse_labels(master.unit_seq) == collapse_labels(labels)

    def test_matches_brute_force_both_directions(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            models = random_model_set(rng, n, 2)
            t1 = int(rng.integers(1, 7))
            t2 = int(rng.integers(1, 7))
            u1 = random_scores(rng, models, t1, 2)
            u2 = random_scores(rng, models, t2, 2)
            master, loglik = pair_fold(u1, u2, models)
            seq, best = brute_force_pronunciation([u1, u2], models,
                                                  min(t1, t2))
            # the DP optimum equals the enumerated optimum, and the DP's
            # sequence re-scores to the same joint value
            assert loglik == pytest.approx(best, abs=1e-9)
            pron = collapse_labels(master.unit_seq)
            assert rescore_pronunciations({"W": ([u1, u2], pron)},
                                          models)["W"] == pytest.approx(
                best, abs=1e-9)

    def test_two_single_frame_utterances(self, rng):
        models = random_model_set(rng, 5, 2)
        u1 = random_scores(rng, models, 1)
        u2 = random_scores(rng, models, 1)
        master, loglik = pair_fold(u1, u2, models)
        combined = u1[0] + u2[0] + 2 * models.exit_logprob
        assert collapse_labels(master.unit_seq) == (int(np.argmax(combined)),)
        assert loglik == pytest.approx(float(np.max(combined)), abs=1e-12)

    def test_symmetry_up_to_tie_breaking(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            models = random_model_set(rng, 3, 2)
            u1 = random_scores(rng, models, int(rng.integers(1, 6)))
            u2 = random_scores(rng, models, int(rng.integers(1, 6)))
            _, a = pair_fold(u1, u2, models)
            _, b = pair_fold(u2, u1, models)
            assert a == pytest.approx(b, abs=1e-9)

    def test_common_units_never_repeat(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            models = random_model_set(rng, 4, 2)
            u1 = random_scores(rng, models, int(rng.integers(2, 8)))
            u2 = random_scores(rng, models, int(rng.integers(2, 8)))
            units = collapse_labels(pair_fold(u1, u2, models)[0].unit_seq)
            assert all(a != b for a, b in zip(units, units[1:]))

    def test_joint_score_decomposes_per_utterance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            models = random_model_set(rng, 3, 2)
            u1 = random_scores(rng, models, int(rng.integers(1, 7)))
            u2 = random_scores(rng, models, int(rng.integers(1, 7)))
            master, loglik = pair_fold(u1, u2, models)
            common = collapse_labels(master.unit_seq)
            l1, l2 = pair_labels(u1, u2, models)
            s1 = per_utterance_path_score(l1, u1, models)
            s2 = per_utterance_path_score(l2, u2, models)
            assert loglik == pytest.approx(s1 + s2, abs=1e-9)
            assert master_loglik(master, models) == pytest.approx(
                loglik, abs=1e-9)
            # each labeling collapses to the common sequence
            assert collapse_labels(l1) == common
            assert collapse_labels(l2) == common
            # constrained re-scoring can only match or exceed
            c1 = chain_loglik(u1, common, models)
            c2 = chain_loglik(u2, common, models)
            assert c1 + c2 >= loglik - 1e-9
            assert c1 >= s1 - 1e-9 and c2 >= s2 - 1e-9

    def test_tied_switch_sources_rescore_exactly(self):
        # scores on a 1.0 grid and dyadic transitions: many switch sources
        # tie, and the backtrace must still return labelings whose exact
        # path scores add up to the joint optimum
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            scorer = dyadic_scorer(n)
            u1 = rng.integers(-3, 1, size=(int(rng.integers(1, 9)), n))
            u2 = rng.integers(-3, 1, size=(int(rng.integers(1, 9)), n))
            u1, u2 = u1.astype(np.float64), u2.astype(np.float64)
            master, loglik = pair_fold(u1, u2, scorer)
            common = collapse_labels(master.unit_seq)
            l1, l2 = pair_labels(u1, u2, scorer)
            s1 = per_utterance_path_score(l1, u1, scorer)
            s2 = per_utterance_path_score(l2, u2, scorer)
            assert s1 + s2 == loglik
            assert master_loglik(master, scorer) == loglik
            assert collapse_labels(l1) == common
            assert collapse_labels(l2) == common
            assert_pair_master(master, u1, u2, scorer)
            _, best = brute_force_pronunciation(
                [u1, u2], scorer, min(len(u1), len(u2), 4))
            assert loglik >= best

    def test_master_frames_partition(self):
        # 3-6 utterances folded in turn; scores and transitions on a
        # dyadic grid, so every sum is exact and the column sums and the
        # recomputed joint loglik compare with ==
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            scorer = dyadic_scorer(n)
            utts = [rng.integers(-12, 1, size=(int(rng.integers(2, 10)), n))
                    / 4.0 for _ in range(int(rng.integers(3, 7)))]
            master, loglik = pair_fold(utts[0], utts[1], scorer)
            assert_pair_master(master, utts[0], utts[1], scorer)
            for k in range(2, len(utts)):
                (master,), (loglik,) = pronunciation._fold(
                    [master], [utts[k]], scorer)
                assert_master_sums(master, utts[:k + 1])
                assert master_loglik(master, scorer) == loglik

    def test_dimension_mismatch(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError, match="dimension"):
            estimate_pronunciations(
                {"W": [rng.normal(size=(3, 3)), rng.normal(size=(3, 5))]},
                models)
        with pytest.raises(DataError, match="dimension"):
            estimate_pronunciations(
                {"W": [rng.normal(size=(3, 3)), np.zeros((0, 3))]}, models)


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
        utts = [scores(int(rng.integers(1, 12)))] + [
            scores(int(rng.integers(1, 9)))
            for _ in range(int(rng.integers(0, 4)))]
        try:
            chain = fold_chain(utts, scorer)
        except NumericError:          # no path through a stuck unit
            continue
        masters.append(chain[-1] if chain
                       else pronunciation._as_master(utts[0]))
        e2s.append(scores(int(rng.integers(1, 12))))
    return scorer, masters, e2s


def assert_same_master(a: MasterUtterance, b: MasterUtterance):
    assert a.n_merged == b.n_merged
    for x, y in zip((a.emissions, a.counts, a.unit_seq),
                    (b.emissions, b.counts, b.unit_seq)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert np.array_equal(x, y)


class TestBatchedFold:
    """The batched engine against one-word calls, compared with ==."""

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
            single = {}
            for b, (master, e2) in enumerate(zip(masters, e2s)):
                try:
                    single[b] = pronunciation._fold([master], [e2], scorer)
                except NumericError:
                    pass
            keep = list(single)
            folded, logliks = pronunciation._fold(
                [masters[b] for b in keep], [e2s[b] for b in keep], scorer)
            for b, master, loglik in zip(keep, folded, logliks):
                (one_master,), (one_loglik,) = single[b]
                assert loglik == one_loglik
                assert_same_master(master, one_master)

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
            rng.normal(size=(int(rng.integers(40, 69)), n)))
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


def pair_dp_oracle(e1, m1, e2, stay, sw_exit):
    """Oracle for :func:`pronunciation._pair_dp` of one word: the
    recursion cell by cell on Python floats, laid out as the DP stores
    it (cell (i, j) at ``[i + j, j]``), moves -1 where no cell is.

    Cell (i, j, a) starts from DIAG, ((S(i-1, j-1, a) + (m1[i-1] + 1) *
    stay[a]) + e1[i-1, a]) + e2[j-1, a]; then LEFT, (S(i-1, j, a) +
    m1[i-1] * stay[a]) + e1[i-1, a], UP, (S(i, j-1, a) + stay[a]) +
    e2[j-1, a], and SWITCH, (max over b != a of (S(i-1, j-1, b) +
    sw_exit[b]) + e1[i-1, a]) + e2[j-1, a], each taken when it is
    strictly larger.  Cell (1, 1) is e1[0] + e2[0]."""
    C, N = e1.shape
    T2 = len(e2)
    e1, m1, e2 = e1.tolist(), m1.tolist(), e2.tolist()
    stay, sw_exit = stay.tolist(), sw_exit.tolist()
    score = np.full((C + T2 + 1, T2 + 1, N), -np.inf)
    move = np.full(score.shape, -1, dtype=np.int8)

    def at(i, j, a):
        return float(score[i + j, j, a])

    for i in range(1, C + 1):
        for j in range(1, T2 + 1):
            for a in range(N):
                if (i, j) == (1, 1):
                    score[2, 1, a] = e1[0][a] + e2[0][a]
                    move[2, 1, a] = pronunciation._INIT
                    continue
                x1, x2 = e1[i - 1][a], e2[j - 1][a]
                best = ((at(i - 1, j - 1, a) + (m1[i - 1] + 1.0) * stay[a])
                        + x1) + x2
                mv = pronunciation._DIAG
                other = max((at(i - 1, j - 1, b) + sw_exit[b]
                             for b in range(N) if b != a), default=-np.inf)
                for code, cand in (
                        (_LEFT, (at(i - 1, j, a) + m1[i - 1] * stay[a]) + x1),
                        (_UP, (at(i, j - 1, a) + stay[a]) + x2),
                        (pronunciation._SWITCH, (other + x1) + x2)):
                    if cand > best:
                        best, mv = cand, code
                score[i + j, j, a] = best
                move[i + j, j, a] = mv
    return score, move


class TestPairDpOracle:
    """:func:`pronunciation._pair_dp` on padded batches equals the
    per-cell recursion of each word, on every cell's score and on the
    move of every cell the word owns."""

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("grid", [0.5, None])
    def test_padded_batches(self, n, grid):
        rng = np.random.default_rng(n + (0 if grid is None else 100))
        seen = set()
        for _ in range(6):
            B = int(rng.integers(1, 5))
            shapes = [(int(rng.integers(1, 7)), int(rng.integers(1, 6)))
                      for _ in range(B)]

            def scores(t):
                u = rng.normal(size=(t, n)) * 3
                if grid is not None:
                    u = np.round(u / grid) * grid
                u[rng.random((t, n)) < 0.15] = -np.inf
                return u

            e1s = [scores(c) for c, _ in shapes]
            e2s = [scores(t) for _, t in shapes]
            m1s = [rng.integers(1, 4, c).astype(np.float64) for c, _ in shapes]
            if grid is None:
                stay = np.log(rng.uniform(0.2, 0.8, n))
                sw = np.log(rng.uniform(0.05, 0.5, (B, n)))
            else:
                # dyadic costs: equal path sums tie exactly
                stay = rng.choice([-1.0, -0.5], n)
                sw = rng.choice([-1.0, -1.5, -2.0], (B, n))
            if rng.random() < 0.3:
                stay[rng.integers(n)] = -np.inf
            C, T2 = max(c for c, _ in shapes), max(t for _, t in shapes)
            score, move = pronunciation._pair_dp(
                pronunciation._pad(e1s, C, -np.inf),
                pronunciation._pad(m1s, C, 1.0),
                pronunciation._pad(e2s, T2, -np.inf), stay, sw)
            for b, ((c, t), e1, m1, e2) in enumerate(
                    zip(shapes, e1s, m1s, e2s)):
                ref_score, ref_move = pair_dp_oracle(e1, m1, e2, stay, sw[b])
                mine = score[b].copy()
                assert np.array_equal(mine[:c + t + 1, :t + 1], ref_score)
                # the padding of a shorter word stays -inf
                mine[:c + t + 1, :t + 1] = -np.inf
                assert np.all(mine == -np.inf)
                own = ref_move >= 0
                assert np.array_equal(move[b, :c + t + 1, :t + 1][own],
                                      ref_move[own])
                seen.update(ref_move[own].tolist())
        codes = {pronunciation._DIAG, _LEFT, _UP, pronunciation._INIT}
        if n > 1:                   # one unit has no other to switch from
            codes.add(pronunciation._SWITCH)
        assert seen == codes


class TestEstimatePronunciation:
    def test_k1_equals_collapsed_free_loop(self, rng):
        models = random_model_set(rng, 4, 2)
        u = random_scores(rng, models, 9, 2)
        labels, ll = free_loop_decode(u, models)
        pron, loglik = estimate_pronunciations({"W": [u]}, models)["W"]
        assert pron == collapse_labels(labels)
        assert loglik == pytest.approx(ll, abs=1e-12)

    def test_k2_equals_pairwise(self, rng):
        models = random_model_set(rng, 3, 2)
        u1 = random_scores(rng, models, 6)
        u2 = random_scores(rng, models, 4)
        # u1 longer: matches fold order
        master, joint = pair_fold(u1, u2, models)
        pron, loglik = estimate_pronunciations({"W": [u2, u1]}, models)["W"]
        assert pron == collapse_labels(master.unit_seq)
        assert loglik == pytest.approx(joint, abs=1e-12)

    def test_loglik_is_the_rescored_likelihood(self):
        # from three utterances on, the fold's own score is not a
        # likelihood; the returned value is the exact one
        rng = np.random.default_rng(7)
        for _ in range(30):
            models = random_model_set(rng, 3, 2)
            utts = [random_scores(rng, models, int(rng.integers(2, 8)))
                    for _ in range(int(rng.integers(3, 5)))]
            pron, loglik = estimate_pronunciations({"W": utts}, models)["W"]
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
            pron, approx = estimate_pronunciations({"W": utts},
                                                   models)["W"]
            _, best = brute_force_pronunciation(utts, models, max_len)
            assert approx >= best - 0.03 * abs(best)
            exact += approx == pytest.approx(best, abs=1e-9)
        assert exact >= 0.8 * n_trials

    def test_merge_order_longest_first(self, rng):
        # fold order is by descending frame count, ties by input order
        models = random_model_set(rng, 3, 2)
        utts = [random_scores(rng, models, t) for t in (3, 7, 5)]
        master_pron, _ = estimate_pronunciations({"W": utts}, models)["W"]
        master = fold_chain([utts[1], utts[2], utts[0]], models)[-1]
        assert master_pron == collapse_labels(master.unit_seq)

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
                if len(utts) > 1:
                    chain = sorted(utts, key=lambda u: -len(u))
                    master = fold_chain(chain, models)[-1]
                    assert estimates[w][0] == collapse_labels(
                        master.unit_seq)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n_examples", [1, 3])
    def test_nan_or_posinf_score_raises_before_any_dp(self, rng, bad,
                                                      n_examples):
        models = random_model_set(rng, 3, 2)
        utts = [random_scores(rng, models, 5) for _ in range(n_examples)]
        utts[-1][2, 1] = bad
        words = {"OK": [random_scores(rng, models, 4) for _ in range(2)],
                 "W": utts}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"^NaN or \+inf emission score$"):
                estimate_pronunciations(words, models)

    @pytest.mark.parametrize("n_examples", [1, 3])
    def test_neginf_column_keeps_the_estimate(self, rng, n_examples):
        # a unit that emits no frame of one example: the free loop of
        # one example, the fold chain and its rescoring of several
        models = random_model_set(rng, 3, 2)
        utts = [random_scores(rng, models, t) for t in (6, 5, 4)]
        utts = utts[:n_examples]
        utts[0][:, 1] = -np.inf
        pron, loglik = estimate_pronunciations({"W": utts}, models)["W"]
        if n_examples == 1:
            labels, expect = free_loop_decode(utts[0], models)
            assert (pron, loglik) == (collapse_labels(labels), expect)
        else:
            master = fold_chain(utts, models)[-1]
            assert pron == collapse_labels(master.unit_seq)
            assert loglik == float(sum(chain_loglik(u, pron, models)
                                       for u in utts))

    def test_errors(self, rng):
        models = random_model_set(rng, 3, 2)
        with pytest.raises(DataError):
            estimate_pronunciations({"W": []}, models)
        # a feature matrix is not a score matrix of a 3-unit scorer
        with pytest.raises(DataError, match="dimension"):
            estimate_pronunciations({"W": [rng.normal(size=(4, 2))]}, models)
        with pytest.raises(DataError, match="dimension"):
            estimate_pronunciations({"W": [np.zeros(3)]}, models)


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
        direct, _ = estimate_pronunciations(
            {"W": [models.frame_scores(u.features)
                   for u in corpus.utterances]}, models)["W"]
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
            rescore_pronunciations({"W": (scores, new["W"])}, models)["W"],
            abs=1e-6)

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
        per_word = {w: estimate_pronunciations({w: segments[w]}, models)[w]
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
        # the network's scores rounded to a 1/8 grid, so the column sums
        # compare with ==
        utts = [np.round(8 * scorer.frame_scores(rng.normal(size=(t, 2)))) / 8
                for t in (9, 7, 6)]
        pair, master = fold_chain(utts, scorer)
        assert_pair_master(pair, utts[0], utts[1], scorer)
        assert_master_sums(master, utts)
