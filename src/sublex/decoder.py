"""Isolated-word and continuous recognition plus WER scoring.

Both decoders are one one-utterance search of the Viterbi recursion in
:mod:`sublex.hmm`, on one (frames, cells) array that lays one chain per
vocabulary word end to end.  Without an LM that search is prepared once
per dictionary and scorer (:meth:`~sublex.hmm.Dictionary.prepare`): the
graph of the dictionary's sorted words with the scorer's transition log
probs, the rows the recursion reads of it and the word lengths are
built on the first decode and reused while the same scorer object is
passed, so a decode scores its frames and runs the recursion, and its
words are the graph's.  The network scorer's log priors are likewise
computed once per scorer.

Isolated decoding has no jumps, so each chain scores its word alone and
the best word wins, ties going to the lexicographically first; it reads
only the final scores and runs no backtrace.  Continuous decoding lets
a path leave a word end for a word start at the insertion penalty.
Without an LM every word may follow every word at that one cost, so
each frame enters every word start from the one best word end
(:func:`~sublex.hmm._forward` with a scalar jump; Ney, 1984), and no
(W, W) array is made.  With a bigram LM the jump is a (W, W) matrix of
scaled bigram log probabilities, built from the LM's arrays
(:meth:`BigramLm.query_matrix`) for each utterance.  One history is
kept per (word, position) cell; a bigram needs only the previous word,
which the cell's word identity carries, so the search is exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NoPathError, open_input
from .hmm import (Dictionary, NEG_INF, _chain_rows, _word_loop,
                  build_graph)
from .hmm import viterbi  # noqa: F401  (kept importable as decoder.viterbi)

logger = logging.getLogger(__name__)

LN10 = math.log(10.0)


class LmOovError(DataError):
    """A query word is outside the language model vocabulary."""


@dataclass(frozen=True)
class BigramLm:
    """Bigram model with unigram backoff, natural-log probabilities."""

    unigram: dict[str, float]
    backoff: dict[str, float]
    bigram: dict[tuple[str, str], float]

    def __post_init__(self):
        for (w1, w2) in self.bigram:
            if w1 not in self.unigram or w2 not in self.unigram:
                raise DataError(f"bigram ({w1!r}, {w2!r}) uses a word "
                                "missing from the unigrams")

    @property
    def vocab(self) -> set[str]:
        return set(self.unigram)

    def unigram_logprob(self, word: str) -> float:
        if word not in self.unigram:
            raise LmOovError(f"word {word!r} not in LM vocabulary")
        return self.unigram[word]

    def query(self, w1: str, w2: str) -> float:
        """log P(w2 | w1): the bigram if present, else backoff + unigram."""
        if w1 not in self.unigram:
            raise LmOovError(f"word {w1!r} not in LM vocabulary")
        if w2 not in self.unigram:
            raise LmOovError(f"word {w2!r} not in LM vocabulary")
        if (w1, w2) in self.bigram:
            return self.bigram[(w1, w2)]
        return self.backoff.get(w1, 0.0) + self.unigram[w2]

    def query_matrix(self) -> np.ndarray:
        """(W, W) log P(w_j | w_i) over the sorted vocabulary, the same
        doubles as :meth:`query` of every pair: backoff plus unigram,
        overwritten where a bigram is listed."""
        words = sorted(self.unigram)
        index = {w: k for k, w in enumerate(words)}
        matrix = (np.array([self.backoff.get(w, 0.0) for w in words])[:, None]
                  + np.array([self.unigram[w] for w in words]))
        for (w1, w2), logp in self.bigram.items():
            matrix[index[w1], index[w2]] = logp
        return matrix


def load_arpa_bigram(path) -> BigramLm:
    """Parse the 1- and 2-gram sections of an ARPA file (log10 inside,
    natural log in the returned model)."""
    counts: dict[int, int] = {}
    unigram: dict[str, float] = {}
    backoff: dict[str, float] = {}
    bigram: dict[tuple[str, str], float] = {}
    section = None
    with open_input(path, "language model") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line == "\\data\\":
                section = "data"
                continue
            if line == "\\1-grams:":
                section = 1
                continue
            if line == "\\2-grams:":
                section = 2
                continue
            if line == "\\end\\":
                section = "end"
                continue
            if line.startswith("\\"):
                raise DataError(f"{path}:{lineno}: malformed section "
                                f"header {line!r}")
            if section == "data":
                if not line.startswith("ngram "):
                    raise DataError(f"{path}:{lineno}: expected 'ngram N=C'")
                order, _, count = line[len("ngram "):].partition("=")
                counts[int(order)] = int(count)
            elif section == 1:
                parts = line.split()
                if len(parts) not in (2, 3):
                    raise DataError(f"{path}:{lineno}: bad 1-gram line")
                word = parts[1].upper()
                unigram[word] = float(parts[0]) * LN10
                if len(parts) == 3:
                    backoff[word] = float(parts[2]) * LN10
            elif section == 2:
                parts = line.split()
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: bad 2-gram line")
                key = (parts[1].upper(), parts[2].upper())
                bigram[key] = float(parts[0]) * LN10
            else:
                raise DataError(f"{path}:{lineno}: content outside any "
                                "section")
    if section != "end":
        raise DataError(f"{path}: missing \\end\\ marker")
    if 1 in counts and counts[1] != len(unigram):
        raise DataError(f"{path}: header promises {counts[1]} 1-grams, "
                        f"found {len(unigram)}")
    if 2 in counts and counts[2] != len(bigram):
        raise DataError(f"{path}: header promises {counts[2]} 2-grams, "
                        f"found {len(bigram)}")
    return BigramLm(unigram, backoff, bigram)


# ---------------------------------------------------------------------------
# Isolated-word decoding


def decode_isolated(features: np.ndarray, dictionary: Dictionary, scorer):
    """Best word by constrained Viterbi score; ties break lexicographically.

    All words are searched in one scores-only pass of the engine, one
    chain per word and no jumps.  Returns (word, log-likelihood).  Words
    whose pronunciations are longer than the utterance are skipped; if
    every word is infeasible a :class:`NoPathError` is raised.
    """
    if not dictionary.entries:
        raise DataError("empty dictionary")
    frame_scores = scorer.frame_scores(features)
    search = dictionary.prepare(scorer)
    graph = search.graph
    feasible = search.lengths <= frame_scores.shape[0]
    if not feasible.any():
        raise NoPathError("utterance shorter than every pronunciation")
    _, _, best, finals = _word_loop(frame_scores, graph.units, graph.stay,
                                    graph.advance, search.rows,
                                    backtrace=False)
    if (finals[feasible] == NEG_INF).any():
        raise NoPathError("no valid path through the graph")
    return graph.words[best], float(finals[best])


# ---------------------------------------------------------------------------
# Continuous decoding


@dataclass(frozen=True)
class RecognitionResult:
    words: tuple[str, ...]
    loglik: float
    boundaries: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.boundaries:
            if self.boundaries[0][0] != 0:
                raise DataError("boundaries do not start at frame 0")
            for (a, b), (c, d) in zip(self.boundaries, self.boundaries[1:]):
                if b != c:
                    raise DataError("boundaries do not partition the frames")


def decode_continuous(features: np.ndarray, dictionary: Dictionary, scorer,
                      lm: BigramLm | None = None, lm_weight: float = 1.0,
                      word_insertion_penalty: float = 0.0
                      ) -> RecognitionResult:
    """Word-loop Viterbi decoding with an optional bigram LM.

    Word-to-word transitions add lm_weight * log P(next | prev) plus the
    insertion penalty; with an LM the first word adds its scaled unigram.
    When an LM is given, the loop runs over the LM vocabulary (which must
    be covered by the dictionary).
    """
    if lm is not None:
        words = sorted(lm.vocab)
        missing = [w for w in words if w not in dictionary]
        if missing:
            raise DataError(f"dictionary misses LM words: {missing[:5]}")
    else:
        words = dictionary.entries
    if not words:
        raise DataError("empty vocabulary")

    frame_scores = scorer.frame_scores(features)
    if lm is not None:
        graph = build_graph(words, dictionary, scorer)
        rows = _chain_rows(graph.starts, graph.advance)
        entry = lm_weight * np.array([lm.unigram_logprob(w) for w in words])
        jump = lm_weight * lm.query_matrix()
    else:
        search = dictionary.prepare(scorer)
        graph, rows = search.graph, search.rows
        entry = 0.0
        jump = 0.0
    cells, jumped, best, finals = _word_loop(
        frame_scores, graph.units, graph.stay, graph.advance, rows,
        entry, jump, word_insertion_penalty)
    if finals[best] == NEG_INF:
        raise NoPathError("utterance shorter than the shortest pronunciation")

    cuts = [0, *np.flatnonzero(jumped).tolist(), len(cells)]
    word_of = np.searchsorted(graph.starts, cells[cuts[:-1]], "right") - 1
    return RecognitionResult(
        tuple(graph.words[w] for w in word_of.tolist()), float(finals[best]),
        tuple(zip(cuts[:-1], cuts[1:])))


def wer(ref, hyp):
    """Word error rate with S/D/I counts from a minimum edit alignment.

    Among minimum-cost alignments the one with the fewest substitutions
    is chosen, which pins down D and I as well because D - I equals
    len(ref) - len(hyp) for every alignment.
    """
    ref = list(ref)
    hyp = list(hyp)
    if not ref:
        raise DataError("empty reference")
    R, H = len(ref), len(hyp)
    # DP over (cost, substitutions), lexicographic
    INF = (10 ** 9, 10 ** 9)
    table = [[INF] * (H + 1) for _ in range(R + 1)]
    table[0][0] = (0, 0)
    for i in range(1, R + 1):
        table[i][0] = (i, 0)
    for j in range(1, H + 1):
        table[0][j] = (j, 0)
    for i in range(1, R + 1):
        ri = ref[i - 1]
        for j in range(1, H + 1):
            sub = 0 if ri == hyp[j - 1] else 1
            c_diag, s_diag = table[i - 1][j - 1]
            c_del, s_del = table[i - 1][j]
            c_ins, s_ins = table[i][j - 1]
            table[i][j] = min((c_diag + sub, s_diag + sub),
                              (c_del + 1, s_del),
                              (c_ins + 1, s_ins))
    cost, subs = table[R][H]
    # D - I = R - H and S + D + I = cost
    dels = (cost - subs + (R - H)) // 2
    ins = (cost - subs - (R - H)) // 2
    rate = cost / R
    return rate, subs, dels, ins
