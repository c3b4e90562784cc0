import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublex.acoustic import make_transitions
from sublex.decoder import (BigramLm, decode_continuous, decode_isolated,
                            load_arpa_bigram, wer)
from sublex.errors import DataError, NoPathError
from sublex.hmm import (Dictionary, build_graph, chain_loglik,
                        free_loop_decode, viterbi)


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
        best_seq, best = None, -np.inf
        for n in range(1, T + 1):
            for seq in itertools.product(dictionary.words, repeat=n):
                if sum(len(dictionary[w]) for w in seq) > T:
                    continue
                graph = build_graph(seq, dictionary, scorer)
                total = viterbi(graph, None, scorer,
                                frame_scores=scorer.scores).loglik
                total += lm_weight * lm.unigram_logprob(seq[0])
                for w1, w2 in zip(seq, seq[1:]):
                    total += lm_weight * lm.query(w1, w2) + wip
                if total > best:
                    best_seq, best = seq, total
        result = decode_continuous(features(scorer), dictionary, scorer,
                                   lm=lm, lm_weight=lm_weight,
                                   word_insertion_penalty=wip)
        assert result.words == best_seq
        assert result.loglik == pytest.approx(best, rel=1e-9)

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

    def test_every_word_too_long(self, rng):
        scorer = random_scorer(rng, 1, 2)
        with pytest.raises(NoPathError):
            decode_isolated(features(scorer), Dictionary({"A": (0, 1)}),
                            scorer)

    def test_empty_dictionary(self, rng):
        scorer = random_scorer(rng, 3, 2)
        with pytest.raises(DataError):
            decode_isolated(features(scorer), Dictionary({}), scorer)


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
