import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from sublex import hmm
from sublex.acoustic import lbg_cluster, make_transitions, nearest_centroid
from sublex.corpus import Corpus, SynthSpec, Utterance, synth_corpus
from sublex.errors import DataError, NoPathError, NumericError
from sublex.hmm import (Dictionary, _chain_batch, align_corpus,
                        align_utterances, build_graph, chain_graph,
                        chain_loglik, collapse_labels, force_align,
                        free_loop_decode, path_loglik, read_dictionary,
                        score_utterances, transition_counts_from_labels,
                        viterbi, viterbi_train_step, write_dictionary)

from sublex.pronunciation import rescore_pronunciations

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

    def test_faulty_entry_outside_the_transcript(self, rng):
        # the dictionary holds a unit the model lacks, in a word the
        # transcript does not use: the graph is built, unit by unit
        models = random_model_set(rng, 2, 2)
        d = Dictionary({"OK": (0, 1), "BIG": (1, 7)})
        graph = build_graph(["OK", "OK"], d, models)
        assert graph.units.tolist() == [0, 1, 0, 1]
        with pytest.raises(DataError, match="word 'BIG': unit id 7"):
            build_graph(d.words, d, models)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_graph_is_the_transcript_words_end_to_end(self, data):
        """Against a reference concatenation, for random dictionaries,
        for transcripts with repeats and for the sorted word list."""
        n_units = data.draw(st.integers(1, 8))
        words = data.draw(st.lists(st.text("ABCDEFGH", min_size=1,
                                           max_size=3),
                                   min_size=1, max_size=30, unique=True))
        entries = {w: tuple(data.draw(st.lists(
            st.integers(0, n_units - 1), min_size=1, max_size=6)))
            for w in words}
        stay, exit_ = make_transitions(
            np.linspace(0.2, 0.8, n_units), n_units)
        scorer = SimpleNamespace(n_units=n_units, stay_logprob=stay,
                                 exit_logprob=exit_)
        d = Dictionary(entries)
        transcript = data.draw(st.lists(st.sampled_from(words),
                                        max_size=12))
        graphs = [(seq, build_graph(seq, d, scorer))
                  for seq in (transcript, sorted(words))]
        graphs.append((sorted(words), d.prepare(scorer).graph))
        for seq, graph in graphs:
            units = [u for w in seq for u in entries[w]]
            starts = [0]
            for w in seq:
                starts.append(starts[-1] + len(entries[w]))
            assert graph.units.dtype == graph.starts.dtype == np.int64
            assert graph.units.tolist() == units
            assert graph.starts.tolist() == starts
            assert graph.words == tuple(seq)
            np.testing.assert_array_equal(graph.stay, stay[units])
            np.testing.assert_array_equal(graph.advance, exit_[units])

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
        # the three ways to split 4 frames over 2 positions
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


# emission values with many exact ties; -inf cells can leave no path
_EMISSIONS = st.sampled_from([-3.0, -1.5, -1.0, -0.5, 0.0, -np.inf])


@st.composite
def chain_rows(draw):
    """A transition-only scorer and (score matrix, chain graph) rows of
    ragged frame counts and chain lengths, some too short for their
    chain."""
    n = draw(st.integers(2, 4))
    stay = draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
    stay_lp, exit_lp = make_transitions(np.array(stay), n)
    scorer = SimpleNamespace(n_units=n, stay_logprob=stay_lp,
                             exit_logprob=exit_lp)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        T = draw(st.integers(1, 8))
        units = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
        emit = draw(st.lists(_EMISSIONS, min_size=T * n, max_size=T * n))
        rows.append((np.array(emit).reshape(T, n),
                     chain_graph(units, scorer)))
    return scorer, rows


def _one_by_one(rows, scorer):
    """Per-row :func:`viterbi`: (loglik, nodes), or (-inf, None) where it
    raises NoPathError."""
    out = []
    for scores, graph in rows:
        try:
            path = viterbi(graph, None, scorer, frame_scores=scores)
        except NoPathError:
            out.append((-np.inf, None))
        else:
            out.append((path.loglik, path.nodes))
    return out


def _monotone_paths(T, P):
    """Every path of T frames from position 0 to position P - 1 that
    stays or advances by one at each frame."""
    for cuts in itertools.combinations(range(1, T), P - 1):
        yield np.repeat(np.arange(P), np.diff((0, *cuts, T)))


class TestBatchedChains:
    """The batched chain search equals the one-utterance search row by
    row, and the best of every enumerated path."""

    @settings(deadline=None, max_examples=150)
    @given(chain_rows(), st.sampled_from([hmm.BATCH_CELLS, 1, 40]))
    def test_equals_viterbi_row_by_row(self, case, cells):
        scorer, rows = case
        # BATCH_CELLS = 1 runs every row alone, 40 cuts ragged buckets
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hmm, "BATCH_CELLS", cells)
            finals, paths = _chain_batch(rows, backtrace=True)
            scores_only, none = _chain_batch(rows)
        assert none == [None] * len(rows)
        for k, (loglik, nodes) in enumerate(_one_by_one(rows, scorer)):
            assert finals[k] == loglik and scores_only[k] == loglik
            assert (chain_loglik(rows[k][0], rows[k][1].units, scorer)
                    == loglik)
            if nodes is not None:
                np.testing.assert_array_equal(paths[k], nodes)

    @settings(deadline=None, max_examples=100)
    @given(chain_rows(), st.sampled_from([hmm.BATCH_CELLS, 1, 40]))
    def test_equals_best_enumerated_path(self, case, cells):
        """An oracle that shares no code with the engine: the best
        :func:`path_loglik` over every monotone state path of a row."""
        _, rows = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hmm, "BATCH_CELLS", cells)
            finals, paths = _chain_batch(rows, backtrace=True)
        for (scores, graph), final, path in zip(rows, finals, paths):
            T, P = len(scores), graph.n_nodes
            best = max((path_loglik(graph, nodes, scores)
                        for nodes in _monotone_paths(T, P)), default=-np.inf)
            assert final == best
            if final > -np.inf:
                assert path_loglik(graph, path, scores) == final

    @pytest.mark.parametrize("T, P", [(4, 4), (1, 1), (1, 3), (3, 5)])
    def test_edge_lengths(self, rng, T, P):
        # T == P (one frame per node), T == 1, and chains too long to fit
        scorer = random_model_set(rng, 3, 2)
        rows = [(rng.normal(size=(T, 3)), chain_graph([0, 1, 2, 0, 1][:P],
                                                      scorer)),
                (rng.normal(size=(6, 3)), chain_graph([2, 1], scorer))]
        finals, paths = _chain_batch(rows, backtrace=True)
        for k, (loglik, nodes) in enumerate(_one_by_one(rows, scorer)):
            assert finals[k] == loglik
            if nodes is not None:
                np.testing.assert_array_equal(paths[k], nodes)
        if T == P:
            assert paths[0].tolist() == list(range(P))
        if T < P:
            assert finals[0] == -np.inf

    def test_constant_emissions_stay_wins_ties(self):
        # every segmentation scores the same; staying wins each tie in
        # the backtrace, so the path holds the last node longest
        stay_lp, exit_lp = make_transitions(0.5, 2)
        scorer = SimpleNamespace(n_units=2, stay_logprob=stay_lp,
                                 exit_logprob=exit_lp)
        rows = [(np.full((6, 2), -1.0), chain_graph([0, 1, 0], scorer)),
                (np.full((2, 2), -1.0), chain_graph([1], scorer))]
        finals, paths = _chain_batch(rows, backtrace=True)
        assert paths[0].tolist() == [0, 1, 2, 2, 2, 2]
        assert paths[1].tolist() == [0, 0]
        for k, (loglik, nodes) in enumerate(_one_by_one(rows, scorer)):
            assert finals[k] == loglik
            np.testing.assert_array_equal(paths[k], nodes)

    def test_nan_emission(self, rng):
        scorer = random_model_set(rng, 3, 2)
        bad = rng.normal(size=(5, 3))
        bad[0, 0] = np.nan      # frame 0 of the second node: on no path
        rows = [(rng.normal(size=(5, 3)), chain_graph([0, 2], scorer)),
                (bad, chain_graph([1, 0], scorer))]
        finals, _ = _chain_batch(rows, backtrace=True)
        assert np.isnan(finals[1])
        assert finals[0] == _one_by_one(rows[:1], scorer)[0][0]
        with pytest.raises(NumericError):
            viterbi(rows[1][1], None, scorer, frame_scores=bad)
        utts = [Utterance(f"u{k}", np.zeros((5, 2)), ("A",))
                for k in range(2)]
        with pytest.raises(NumericError):
            align_utterances(utts, Dictionary({"A": (1, 0)}), scorer,
                             scores=[rows[0][0], bad])

    def test_nan_row_reaches_no_other_row(self, rng):
        # the NaN row has the fewest frames, so it sorts first in the
        # bucket, right before the finite rows' cells
        scorer = random_model_set(rng, 3, 2)
        bad = np.full((2, 3), np.nan)
        rows = [(rng.normal(size=(5, 3)), chain_graph([0, 2], scorer)),
                (bad, chain_graph([1, 0], scorer)),
                (rng.normal(size=(4, 3)), chain_graph([2], scorer))]
        finals, paths = _chain_batch(rows, backtrace=True)
        assert np.isnan(finals).tolist() == [False, True, False]
        for k in (0, 2):
            loglik, nodes = _one_by_one(rows[k:k + 1], scorer)[0]
            assert finals[k] == loglik
            np.testing.assert_array_equal(paths[k], nodes)

    def test_posinf_row_reaches_no_other_row(self, rng):
        # +inf on the last node of the row that sorts first: adding the
        # -inf that bars the advance across rows would make it NaN in
        # the next row's first cell
        scorer = random_model_set(rng, 3, 2)
        bad = np.full((2, 3), np.inf)
        rows = [(rng.normal(size=(5, 3)), chain_graph([0, 2], scorer)),
                (bad, chain_graph([1, 0], scorer)),
                (rng.normal(size=(4, 3)), chain_graph([2], scorer))]
        finals, paths = _chain_batch(rows, backtrace=True)
        assert np.isnan(finals).tolist() == [False, True, False]
        for k in (0, 2):
            loglik, nodes = _one_by_one(rows[k:k + 1], scorer)[0]
            assert finals[k] == loglik
            np.testing.assert_array_equal(paths[k], nodes)
        with pytest.raises(NumericError):
            rescore_pronunciations({"A": ([rows[0][0], bad], (1, 0)),
                                    "B": ([rows[2][0]], (2,))}, scorer)
        utts = [Utterance(f"u{k}", np.zeros((n, 2)), ("A",))
                for k, n in enumerate((5, 2))]
        with pytest.raises(NumericError):
            align_utterances(utts, Dictionary({"A": (1, 0)}), scorer,
                             scores=[rows[0][0], bad])


def _random_word_loop(rng):
    """A one-utterance word-loop search: (frame scores, units, stay,
    advance, starts, penalty).  Words have 1-3 units; half the cases are
    integer-valued, so that candidates tie, and a fifth of the
    emissions are -inf."""
    W = int(rng.integers(1, 6))
    starts = np.concatenate(([0], np.cumsum(rng.integers(1, 4, W))))
    C, N, T = starts[-1], int(rng.integers(1, 5)), int(rng.integers(1, 12))
    if rng.random() < 0.5:
        scores = rng.integers(-3, 1, (T, N)).astype(float)
        stay, advance = rng.integers(-2, 1, (2, C)).astype(float)
    else:
        scores = rng.normal(size=(T, N))
        stay, advance = -rng.uniform(0.0, 2.0, (2, C))
    scores[rng.random((T, N)) < 0.2] = -np.inf
    return (scores, rng.integers(0, N, C), stay, advance, starts,
            float(rng.choice([0.0, -0.7, 0.5, -1.0])))


class TestWordLoop:
    def test_scalar_jump_equals_zero_matrix(self):
        """The LM-free step (a scalar jump: each frame enters every chain
        start from the one best chain end) gives the cells, jump flags,
        final chain and final scores of the (W, W) step with a zero
        matrix, ties and -inf included."""
        seen = set()
        for seed in range(300):
            scores, units, stay, advance, starts, penalty = \
                _random_word_loop(np.random.default_rng(seed))
            W = len(starts) - 1
            rows = hmm._chain_rows(starts, advance)
            cells, jumped, chain, finals = hmm._word_loop(
                scores, units, stay, advance, rows, jump=0.0,
                penalty=penalty)
            ref = hmm._word_loop(scores, units, stay, advance, rows,
                                 jump=np.zeros((W, W)), penalty=penalty)
            np.testing.assert_array_equal(cells, ref[0])
            np.testing.assert_array_equal(jumped, ref[1])
            assert chain == ref[2]
            assert finals.tobytes() == ref[3].tobytes()
            word = np.searchsorted(starts, cells, "right") - 1
            at = np.flatnonzero(jumped)
            if np.any(word[at] == word[at - 1]):
                seen.add("word follows itself")
            if at.size and np.any(np.diff(starts)[word[at]] == 1):
                seen.add("single-unit word entered")
            if finals[chain] == -np.inf:
                seen.add("no path")
        assert seen == {"word follows itself", "single-unit word entered",
                        "no path"}

    def test_jump_source_when_the_penalty_rounds_word_ends_together(self):
        """Chains 1 and 2 end one ulp apart, and adding the penalty
        rounds them to one value.  The jump comes from the lower chain,
        the first maximum of ``prev + leave + jump + penalty``, not from
        chain 2, the best end before the penalty."""
        stay, advance = np.full(3, -1e4), np.full(3, -0.5)
        penalty = -1000.0
        scores = np.zeros((2, 3))
        scores[0] = [-50.0, -3.0, np.nextafter(-3.0, 0.0)]
        ends = scores[0] + advance
        assert ends[1] < ends[2] and np.argmax(ends) == 2
        assert (ends[1] + 0.0) + penalty == (ends[2] + 0.0) + penalty
        rows = hmm._chain_rows(np.arange(4), advance)
        cells, jumped, chain, finals = hmm._word_loop(
            scores, np.arange(3), stay, advance, rows, jump=0.0,
            penalty=penalty)
        ref = hmm._word_loop(scores, np.arange(3), stay, advance, rows,
                             jump=np.zeros((3, 3)), penalty=penalty)
        np.testing.assert_array_equal(cells, ref[0])
        np.testing.assert_array_equal(jumped, ref[1])
        assert (chain, finals.tobytes()) == (ref[2], ref[3].tobytes())
        assert cells.tolist() == [1, 0] and jumped.tolist() == [False, True]


class TestAlignCorpus:
    @staticmethod
    def corpus_and_models():
        spec = SynthSpec(n_words=5, n_units=4, utts_per_word=4,
                         words_per_utterance=2, separation=5.0)
        corpus, truth = synth_corpus(spec, seed=7)
        return corpus, Dictionary(truth.true_dictionary), \
            _models_from_truth(truth)

    def test_equals_force_align_per_utterance(self):
        corpus, d, models = self.corpus_and_models()
        labels, total, _, _ = align_corpus(corpus, d, models)
        expect_total = 0.0
        for utt, lab in zip(corpus.utterances, labels):
            ref, _, loglik = force_align(utt, d, models)
            np.testing.assert_array_equal(lab, ref)
            expect_total += loglik
        assert total == expect_total

    def test_word_spans_equal_force_align(self):
        corpus, d, models = self.corpus_and_models()
        for utt, (lab, spans, loglik) in zip(
                corpus.utterances,
                align_utterances(corpus.utterances, d, models,
                                 score_utterances(corpus.utterances,
                                                  models))):
            ref_lab, ref_spans, ref_loglik = force_align(utt, d, models)
            np.testing.assert_array_equal(lab, ref_lab)
            assert (spans, loglik) == (ref_spans, ref_loglik)

    def test_stacked_gmm_scores_equal_per_utterance_scores(self):
        corpus, _, models = self.corpus_and_models()
        for utt, scores in zip(corpus.utterances,
                               score_utterances(corpus.utterances, models)):
            np.testing.assert_array_equal(scores,
                                          models.frame_scores(utt.features))

    @pytest.mark.parametrize("short_first", [True, False])
    def test_first_failing_utterance_names_the_error(self, rng, short_first):
        # a too-short utterance and one with an unknown word: the error
        # is the one force_align raises for whichever comes first
        models = random_model_set(rng, 3, 2)
        d = Dictionary({"A": (0, 1, 2), "B": (1,)})
        short = Utterance("short", rng.normal(size=(2, 2)), ("A",))
        unknown = Utterance("unknown", rng.normal(size=(8, 2)), ("A", "Z"))
        bad = [short, unknown] if short_first else [unknown, short]
        corpus = Corpus((Utterance("ok", rng.normal(size=(8, 2)), ("A", "B")),
                         *bad,
                         Utterance("ok2", rng.normal(size=(9, 2)), ("B",))))
        expected = NoPathError if short_first else DataError
        with pytest.raises(expected) as batched:
            align_corpus(corpus, d, models)
        with pytest.raises(expected) as single:
            force_align(bad[0], d, models)
        assert str(batched.value) == str(single.value)


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

    def test_unit_id_too_large_for_the_layout(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(f"A\ta1\nW\ta0 a{2 ** 63}\n")
        with pytest.raises(DataError, match="'W' does not fit"):
            read_dictionary(path)

        class AnyUnit:
            def __getitem__(self, units):
                return np.zeros(len(units))

        scorer = SimpleNamespace(n_units=2 ** 63, stay_logprob=AnyUnit(),
                                 exit_logprob=AnyUnit())
        graph = Dictionary({"W": (2 ** 63 - 1,)}).prepare(scorer).graph
        assert graph.units.tolist() == [2 ** 63 - 1]


class TestWordLayout:
    """The words laid end to end in the all-words search that
    :meth:`Dictionary.prepare` keeps."""

    ENTRIES = {"B": (2, 0), "A": (1,), "C": (0, 3, 3)}
    STAY, EXIT = make_transitions(np.linspace(0.2, 0.8, 4), 4)
    SCORER = SimpleNamespace(n_units=4, stay_logprob=STAY, exit_logprob=EXIT)

    def test_layout(self):
        graph = Dictionary(dict(self.ENTRIES)).prepare(self.SCORER).graph
        assert graph.words == ("A", "B", "C")
        assert graph.units.tolist() == [1, 2, 0, 0, 3, 3]
        assert graph.starts.tolist() == [0, 1, 3, 6]
        for a in (graph.units, graph.starts):
            with pytest.raises(ValueError):
                a[0] = 5
        empty = Dictionary({}).prepare(self.SCORER).graph
        assert empty.words == () and empty.starts.tolist() == [0]
        assert empty.units.size == 0

    def test_layout_leaves_the_dictionary_unchanged(self, tmp_path):
        d = Dictionary(dict(self.ENTRIES))
        prepared = d.prepare(self.SCORER)
        build_graph(d.words, d, self.SCORER)
        assert d.entries == self.ENTRIES
        assert d == Dictionary(dict(self.ENTRIES))
        assert d != Dictionary({**self.ENTRIES, "A": (2,)})
        assert repr(d) == f"Dictionary(entries={self.ENTRIES!r})"
        assert d.words == ["A", "B", "C"]
        assert d.changes_since(Dictionary({"A": (1,), "B": (0, 2)})) == 2
        assert d.changes_since(d) == 0
        write_dictionary(d, tmp_path / "d.txt")
        again = read_dictionary(tmp_path / "d.txt")
        assert again == d
        graph = again.prepare(self.SCORER).graph
        assert graph.words == prepared.graph.words
        for a, b in ((graph.units, prepared.graph.units),
                     (graph.starts, prepared.graph.starts)):
            np.testing.assert_array_equal(a, b)
