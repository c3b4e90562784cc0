import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublex import hmm
from sublex.acoustic import make_transitions
from sublex.corpus import Utterance
from sublex.decoder import (BigramLm, RecognitionResult, decode_continuous,
                            decode_isolated, load_arpa_bigram, wer)
from sublex.errors import DataError, NoPathError, NumericError
from sublex.hmm import (Dictionary, _chain_rows, _word_loop,
                        align_utterances, build_graph, chain_loglik,
                        force_align, free_loop_decode, viterbi)
from sublex.mlp import PosteriorScorer, init_mlp
from sublex.pronunciation import rescore_pronunciations

from conftest import random_model_set


class FixedScorer:
    """A scorer whose frame scores are a given (T, N) matrix."""

    def __init__(self, scores, stay_prob):
        self.scores = np.asarray(scores, dtype=np.float64)
        self.n_units = self.scores.shape[1]
        self.stay_logprob, self.exit_logprob = make_transitions(
            stay_prob, self.n_units)

    def frame_scores(self, features):
        return self.scores


def random_scorer(rng, T, n_units):
    return FixedScorer(rng.normal(size=(T, n_units)) * 2,
                       rng.uniform(0.2, 0.8, size=n_units))


def features(scorer):
    return np.zeros((scorer.scores.shape[0], 1))


def random_bigram(rng, words):
    return BigramLm({w: float(-rng.uniform(0.5, 2.0)) for w in words},
                    {w: float(-rng.uniform(0.0, 1.0)) for w in words},
                    {(a, b): float(-rng.uniform(0.1, 3.0))
                     for a in words for b in words if rng.random() < 0.6})


def exhaustive_search(scorer, dictionary, lm, lm_weight, wip):
    """The best word sequence and its score over all sequences: chain
    Viterbi plus LM (when given) and insertion terms."""
    T = scorer.scores.shape[0]
    best_seq, best = None, -np.inf
    for n in range(1, T + 1):
        for seq in itertools.product(dictionary.words, repeat=n):
            if sum(len(dictionary[w]) for w in seq) > T:
                continue
            graph = build_graph(seq, dictionary, scorer)
            total = viterbi(graph, None, scorer,
                            frame_scores=scorer.scores).loglik
            if lm is not None:
                total += lm_weight * lm.unigram_logprob(seq[0])
            for w1, w2 in zip(seq, seq[1:]):
                jump = 0.0 if lm is None else lm_weight * lm.query(w1, w2)
                total += jump + wip
            if total > best:
                best_seq, best = seq, total
    return best_seq, best


class TestDecodeContinuous:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_search(self, seed):
        """The word loop finds the best word sequence: the best over all
        sequences of chain Viterbi plus LM and insertion terms."""
        rng = np.random.default_rng(seed)
        T, n_units = int(rng.integers(3, 7)), 4
        scorer = random_scorer(rng, T, n_units)
        dictionary = Dictionary({"A": (0,), "B": (1, 2), "C": (3, 0, 1)})
        lm = random_bigram(rng, dictionary.words)
        lm_weight, wip = 1.3, -0.7
        best_seq, best = exhaustive_search(scorer, dictionary, lm,
                                           lm_weight, wip)
        result = decode_continuous(features(scorer), dictionary, scorer,
                                   lm=lm, lm_weight=lm_weight,
                                   word_insertion_penalty=wip)
        assert result.words == best_seq
        assert result.loglik == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize("wip", [0.0, -0.7, 0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_lm_free_matches_exhaustive_search(self, seed, wip):
        """Without an LM, every word follows every word at the insertion
        penalty alone, and the loop still finds the best sequence."""
        rng = np.random.default_rng(seed)
        scorer = random_scorer(rng, int(rng.integers(3, 7)), 4)
        dictionary = Dictionary({"A": (0,), "B": (1, 2), "C": (3, 0, 1)})
        best_seq, best = exhaustive_search(scorer, dictionary, None, 1.0, wip)
        result = decode_continuous(features(scorer), dictionary, scorer,
                                   word_insertion_penalty=wip)
        assert result.words == best_seq
        assert result.loglik == pytest.approx(best, rel=1e-9)

    def test_lm_free_loop_makes_no_word_by_word_array(self):
        """2000 words on 5 frames: a (W, W) array alone would take 32 MB."""
        rng = np.random.default_rng(0)
        scorer = random_scorer(rng, 5, 8)
        dictionary = Dictionary({f"W{k}": tuple(rng.integers(0, 8, 1 + k % 3))
                                 for k in range(2000)})
        decode_continuous(features(scorer), dictionary, scorer)  # warm-up
        tracemalloc.start()
        try:
            result = decode_continuous(features(scorer), dictionary, scorer,
                                       word_insertion_penalty=-0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.words
        assert peak < 4 * 2 ** 20

    def test_boundaries_follow_the_chain_alignment(self, rng):
        """Segment lengths equal the frames a forced alignment of the
        hypothesis gives each word."""
        scorer = random_scorer(rng, 12, 4)
        dictionary = Dictionary({"A": (0,), "B": (1, 2), "C": (3,)})
        result = decode_continuous(features(scorer), dictionary, scorer,
                                   word_insertion_penalty=-1.0)
        graph = build_graph(result.words, dictionary, scorer)
        path = viterbi(graph, None, scorer, frame_scores=scorer.scores)
        lengths = np.diff(np.searchsorted(path.nodes, graph.starts))
        assert [b - a for a, b in result.boundaries] == lengths.tolist()
        assert result.boundaries[-1][1] == 12

    @pytest.mark.parametrize("wip, words, lengths, step", [
        (0.0, ("A",) * 5, [1] * 5, 0.9), (-5.0, ("B",), [5], 0.5)])
    def test_back_to_back_repeats(self, wip, words, lengths, step):
        """A word that follows itself jumps from its end cell to the same
        cell: only the jump flag marks the boundary.  Each frame costs
        one transition of probability ``step``."""
        scorer = FixedScorer(np.zeros((5, 2)), [0.1, 0.5])
        result = decode_continuous(features(scorer),
                                   Dictionary({"A": (0,), "B": (1, 1)}),
                                   scorer, word_insertion_penalty=wip)
        assert result.words == words
        assert [b - a for a, b in result.boundaries] == lengths
        assert result.loglik == pytest.approx(5 * np.log(step), rel=1e-12)

    def test_too_short_raises_no_path(self, rng):
        scorer = random_scorer(rng, 1, 3)
        dictionary = Dictionary({"A": (0, 1), "B": (2, 0)})
        with pytest.raises(NoPathError):
            decode_continuous(features(scorer), dictionary, scorer)

    def test_lm_word_missing_from_dictionary(self, rng):
        scorer = random_scorer(rng, 4, 2)
        lm = BigramLm({"A": -1.0, "Z": -1.0}, {}, {})
        with pytest.raises(DataError, match="misses"):
            decode_continuous(features(scorer), Dictionary({"A": (0,)}),
                              scorer, lm=lm)

    @pytest.mark.parametrize("seed", range(4))
    def test_lm_decode_matches_per_pair_queries(self, seed):
        """With an LM, the words, boundaries and loglik are those of the
        word-loop search on matrices built from per-pair queries."""
        rng = np.random.default_rng(seed)
        scorer = random_scorer(rng, 14, 4)
        dictionary = Dictionary({"A": (0,), "B": (1, 2), "C": (3, 0, 1),
                                 "D": (2,), "E": (1, 3)})
        lm = random_bigram(rng, ["E", "C", "A", "B"])
        lm_weight, wip = 1.3, -0.7
        words = sorted(lm.vocab)
        entry = lm_weight * np.array([lm.unigram_logprob(w) for w in words])
        jump = lm_weight * np.array([[lm.query(w1, w2) for w2 in words]
                                     for w1 in words])
        graph = build_graph(words, dictionary, scorer)
        cells, jumped, best, finals = _word_loop(
            scorer.scores, graph.units, graph.stay, graph.advance,
            _chain_rows(graph.starts, graph.advance), entry, jump, wip)
        cuts = [0, *np.flatnonzero(jumped).tolist(), len(cells)]
        word_of = np.searchsorted(graph.starts, cells[cuts[:-1]],
                                  "right") - 1
        expect = RecognitionResult(tuple(words[w] for w in word_of),
                                   float(finals[best]),
                                   tuple(zip(cuts[:-1], cuts[1:])))
        assert decode_continuous(features(scorer), dictionary, scorer,
                                 lm=lm, lm_weight=lm_weight,
                                 word_insertion_penalty=wip) == expect

    @pytest.mark.parametrize("seed", range(20))
    def test_query_matrix_equals_per_pair_queries(self, seed):
        """Bitwise, for LMs where some words have no backoff entry and
        some pairs no bigram."""
        rng = np.random.default_rng(seed)
        words = [f"W{k}" for k in rng.permutation(int(rng.integers(1, 9)))]
        lm = random_bigram(rng, words)
        lm = BigramLm(lm.unigram, {w: b for w, b in lm.backoff.items()
                                   if rng.random() < 0.5}, lm.bigram)
        vocab = sorted(words)
        expect = np.array([[lm.query(w1, w2) for w2 in vocab]
                           for w1 in vocab])
        assert lm.query_matrix().tobytes() == expect.tobytes()

    def test_lm_decode_makes_no_query_call(self, rng, monkeypatch):
        calls = []
        query = BigramLm.query
        monkeypatch.setattr(BigramLm, "query", lambda self, *pair:
                            calls.append(pair) or query(self, *pair))
        scorer = random_scorer(rng, 8, 4)
        dictionary = Dictionary({"A": (0,), "B": (1, 2), "C": (3,)})
        lm = random_bigram(rng, dictionary.words)
        lm.query("A", "B")
        assert calls == [("A", "B")]        # the counter sees a call
        calls.clear()
        decode_continuous(features(scorer), dictionary, scorer, lm=lm)
        assert calls == []

    def test_parsed_arpa_lm(self, tmp_path, rng):
        arpa = tmp_path / "lm.arpa"
        arpa.write_text("\\data\\\nngram 1=2\nngram 2=1\n\n\\1-grams:\n"
                        "-0.3\tA\t-0.1\n-0.3\tB\n\n\\2-grams:\n-2.0\tA B\n"
                        "\n\\end\\\n")
        lm = load_arpa_bigram(arpa)
        assert lm.query("A", "B") == pytest.approx(-2.0 * np.log(10))
        scorer = random_scorer(rng, 6, 2)
        result = decode_continuous(features(scorer),
                                   Dictionary({"A": (0,), "B": (1,)}),
                                   scorer, lm=lm)
        assert set(result.words) <= {"A", "B"}


class TestDecodeIsolated:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_word_argmax(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(2, 8))
        scorer = random_scorer(rng, T, 5)
        entries = {f"W{i}": tuple(int(u) for u in
                                  rng.integers(5, size=rng.integers(1, 5)))
                   for i in range(6)}
        entries["LONG"] = (0,) * (T + 1)
        dictionary = Dictionary(entries)
        scores = {w: chain_loglik(scorer.scores, dictionary[w], scorer)
                  for w in dictionary.words}
        ref = max(dictionary.words, key=lambda w: scores[w])
        word, loglik = decode_isolated(features(scorer), dictionary, scorer)
        assert (word, loglik) == (ref, scores[ref])

    def test_ties_break_lexicographically(self, rng):
        scorer = random_scorer(rng, 6, 3)
        dictionary = Dictionary({"ZED": (0, 1), "ALPHA": (0, 1),
                                 "MID": (0, 1)})
        word, _ = decode_isolated(features(scorer), dictionary, scorer)
        assert word == "ALPHA"

    def test_word_longer_than_utterance_is_skipped(self, rng):
        scores = np.zeros((2, 2))
        scores[:, 1] = 5.0                      # unit 1 fits every frame
        scorer = FixedScorer(scores, np.full(2, 0.5))
        dictionary = Dictionary({"A": (1, 1, 1), "B": (0,)})
        assert decode_isolated(features(scorer), dictionary,
                               scorer)[0] == "B"

    def test_nan_emission_raises(self, rng):
        # the NaN sits where no path reads it: frame 0 of a second node
        scorer = random_scorer(rng, 4, 3)
        scorer.scores[0, 2] = np.nan
        with pytest.raises(NumericError):
            decode_isolated(features(scorer),
                            Dictionary({"A": (0, 2), "B": (1,)}), scorer)

    def test_every_word_too_long(self, rng):
        scorer = random_scorer(rng, 1, 2)
        with pytest.raises(NoPathError):
            decode_isolated(features(scorer), Dictionary({"A": (0, 1)}),
                            scorer)

    def test_empty_dictionary(self, rng):
        scorer = random_scorer(rng, 3, 2)
        with pytest.raises(DataError):
            decode_isolated(features(scorer), Dictionary({}), scorer)


class TestPreparedSearch:
    """Each dictionary keeps the all-words search of the last scorer it
    decoded with; every decode equals one with a fresh dictionary."""

    @staticmethod
    def scorers():
        rng = np.random.default_rng(3)
        net = init_mlp((6, 5, 4), 1, 0)
        return (random_model_set(rng, 4, 2),
                PosteriorScorer(net, rng.dirichlet(np.ones(4)),
                                *make_transitions(rng.uniform(0.2, 0.8, 4),
                                                  4)))

    def test_alternating_pairs_equal_fresh_dictionaries(self):
        rng = np.random.default_rng(7)
        scorers = self.scorers()
        entries = ({"A": (0, 1), "B": (2,), "C": (3, 0, 2)},
                   {"A": (1,), "D": (3, 3), "E": (0, 2, 1, 3)})
        dictionaries = [Dictionary(e) for e in entries]
        for k in range(24):
            scorer = scorers[k % 2]
            d = k // 2 % 2
            feats = rng.normal(size=(int(rng.integers(4, 12)), 2)) * 2
            assert (decode_isolated(feats, dictionaries[d], scorer)
                    == decode_isolated(feats, Dictionary(entries[d]),
                                       scorer))
            assert (decode_continuous(feats, dictionaries[d], scorer,
                                      word_insertion_penalty=-0.5)
                    == decode_continuous(feats, Dictionary(entries[d]),
                                         scorer, word_insertion_penalty=-0.5))
            assert dictionaries[d].prepared.scorer is scorer

    def test_one_graph_per_dictionary_and_scorer(self, monkeypatch):
        calls = []

        def counting_build_graph(*args):
            calls.append(args[0])
            return build_graph(*args)

        monkeypatch.setattr(hmm, "build_graph", counting_build_graph)
        scorer = self.scorers()[0]
        dictionary = Dictionary({"A": (0, 1), "B": (2,), "C": (3, 0, 2)})
        feats = np.random.default_rng(0).normal(size=(50, 8, 2))
        for k, x in enumerate(feats):
            if k % 2:
                decode_continuous(x, dictionary, scorer)
            else:
                decode_isolated(x, dictionary, scorer)
        assert calls == [("A", "B", "C")]
        prepared = dictionary.prepared
        graph = prepared.graph
        assert graph.units.tolist() == [0, 1, 2, 3, 0, 2]
        assert graph.starts.tolist() == [0, 2, 3, 6]
        assert not any(a.flags.writeable for a in (
            graph.units, graph.starts, graph.stay, graph.advance,
            *prepared.rows, prepared.lengths))

    @pytest.mark.parametrize("decode", [decode_isolated, decode_continuous])
    def test_unit_out_of_range_caches_nothing(self, decode):
        scorer = self.scorers()[0]
        dictionary = Dictionary({"A": (0,), "BAD": (1, 4)})
        msg = r"word 'BAD': unit id 4 out of range \(model has 4\)"
        for _ in range(2):
            with pytest.raises(DataError, match=msg):
                decode(np.zeros((3, 2)), dictionary, scorer)
            assert dictionary.prepared is None

    def test_equality_and_repr_ignore_the_cache(self):
        scorer = self.scorers()[1]
        entries = {"A": (0, 1), "B": (2,)}
        used, fresh = Dictionary(entries), Dictionary(entries)
        decode_isolated(np.zeros((3, 2)), used, scorer)
        assert used.prepared is not None and fresh.prepared is None
        assert used == fresh and repr(used) == repr(fresh)
        assert "prepared" not in repr(used)


class TestFreeLoopEnumeration:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_every_labeling(self, seed):
        rng = np.random.default_rng(seed)
        T, N = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        scorer = random_scorer(rng, T, N)
        stay, exit_ = scorer.stay_logprob, scorer.exit_logprob
        best_labels, best = None, -np.inf
        for labels in itertools.product(range(N), repeat=T):
            total = scorer.scores[0, labels[0]]
            for t in range(1, T):
                prev, cur = labels[t - 1], labels[t]
                total += stay[cur] if cur == prev else exit_[prev]
                total += scorer.scores[t, cur]
            total += exit_[labels[-1]]
            if total > best:
                best_labels, best = labels, total
        labels, loglik = free_loop_decode(scorer.scores, scorer)
        assert tuple(labels.tolist()) == best_labels
        assert loglik == pytest.approx(best, rel=1e-9)

    def test_ties_prefer_staying_then_lower_unit(self):
        scorer = FixedScorer(np.zeros((3, 3)), np.full(3, 0.5))
        labels, _ = free_loop_decode(scorer.scores, scorer)
        assert labels.tolist() == [0, 0, 0]


_SEARCHES = {
    "viterbi": lambda scorer, d: viterbi(
        build_graph(("A",), d, scorer), None, scorer,
        frame_scores=scorer.scores),
    "force_align": lambda scorer, d: force_align(
        Utterance("u", features(scorer), ("A",)), d, scorer),
    "free_loop_decode": lambda scorer, d: free_loop_decode(scorer.scores,
                                                           scorer),
    "decode_isolated": lambda scorer, d: decode_isolated(features(scorer), d,
                                                         scorer),
    "decode_continuous": lambda scorer, d: decode_continuous(
        features(scorer), d, scorer),
    "align_utterances": lambda scorer, d: align_utterances(
        [Utterance("u", features(scorer), ("A",))], d, scorer,
        [scorer.scores]),
    "rescore_pronunciations": lambda scorer, d: rescore_pronunciations(
        {"A": ([scorer.scores], d["A"])}, scorer),
}


@pytest.mark.parametrize("search", list(_SEARCHES))
def test_nan_emission_raises_numeric_error(rng, search):
    # the NaN sits where no path reads it: frame 0 of a second node
    scorer = random_scorer(rng, 6, 3)
    scorer.scores[0, 2] = np.nan
    with pytest.raises(NumericError):
        _SEARCHES[search](scorer, Dictionary({"A": (0, 2), "B": (1,)}))


@pytest.mark.parametrize("search", list(_SEARCHES))
def test_posinf_emission_raises_numeric_error(rng, search):
    # every search would return a +inf log-likelihood: each has a path
    # through unit 0 at frame 2
    scorer = random_scorer(rng, 6, 3)
    scorer.scores[2, 0] = np.inf
    with pytest.raises(NumericError, match=r"^NaN or \+inf emission score$"):
        _SEARCHES[search](scorer, Dictionary({"A": (0, 2), "B": (1,)}))


def edit_distance(ref, hyp):
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        prev, row[0] = row[0], i
        for j, h in enumerate(hyp, 1):
            prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1,
                                       prev + (r != h))
    return row[-1]


words = st.lists(st.sampled_from("abc"), max_size=7)


class TestWer:
    @settings(deadline=None)
    @given(words.filter(bool))
    def test_identity_is_zero(self, ref):
        assert wer(ref, ref) == (0.0, 0, 0, 0)

    @settings(deadline=None)
    @given(words.filter(bool), words)
    def test_counts_match_edit_distance(self, ref, hyp):
        rate, s, d, i = wer(ref, hyp)
        cost = edit_distance(ref, hyp)
        assert s + d + i == cost
        assert d - i == len(ref) - len(hyp)
        assert min(s, d, i) >= 0
        assert rate == cost / len(ref)

    def test_empty_reference(self):
        with pytest.raises(DataError):
            wer([], ["a"])
