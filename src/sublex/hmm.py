"""Left-to-right decode graphs, Viterbi alignment and segmental training.

All arithmetic is in the log domain.  Every Viterbi search in the package
(chain alignment, free unit loop, isolated and continuous word decoding)
is one call of a single engine, :func:`_word_loop`: a time-synchronous
token-passing recursion over the positions of several left-to-right
chains, with stay and advance edges inside a chain and optional
chain-end to chain-start jumps.  Ties are broken the same way
everywhere: staying in a cell beats advancing, advancing beats a jump,
a jump comes from the lowest-numbered chain, and the final chain is the
lowest-numbered best one.  Paths are therefore deterministic.

Every search runs on one layout, :class:`DecodeGraph`: word chains laid
end to end, whose W + 1 word boundaries ``starts`` are the engine's
chain boundaries and cut :func:`force_align`'s word spans.

Emission scoring is pluggable: any object with ``n_units``,
``stay_logprob``, ``exit_logprob`` and ``frame_scores(features)`` works
(an :class:`~sublex.acoustic.AcousticModelSet`, or the network-posterior
scorer from :mod:`sublex.mlp`).  :func:`viterbi` and :func:`force_align`
take features or precomputed ``frame_scores``; :func:`free_loop_decode`,
:func:`chain_loglik` and :func:`path_loglik` take only a (frames, units)
score matrix.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .acoustic import (AcousticModelSet, em_reestimate, make_transitions)
from .corpus import Corpus, Utterance
from .errors import DataError, NoPathError, NumericError, open_input

logger = logging.getLogger(__name__)

NEG_INF = -np.inf


@dataclass(frozen=True)
class Dictionary:
    """Mapping word -> pronunciation, a nonempty sequence of unit ids."""

    entries: dict[str, tuple[int, ...]]

    def __post_init__(self):
        for word, pron in self.entries.items():
            if len(pron) == 0:
                raise DataError(f"empty pronunciation for word {word!r}")
            if any(u < 0 for u in pron):
                raise DataError(f"negative unit id in entry for {word!r}")

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __getitem__(self, word: str) -> tuple[int, ...]:
        return self.entries[word]

    @property
    def words(self) -> list[str]:
        return sorted(self.entries)

    def changes_since(self, old: Dictionary) -> int:
        """Number of entries that are new or differ from ``old``."""
        return sum(1 for w, pron in self.entries.items()
                   if old.entries.get(w) != pron)


def write_dictionary(dictionary: Dictionary, path) -> None:
    """One ``WORD<TAB>a3 a17 ...`` line per entry, sorted by word."""
    with open(path, "w", encoding="utf-8") as fh:
        for word in dictionary.words:
            units = " ".join(f"a{u}" for u in dictionary[word])
            fh.write(f"{word}\t{units}\n")


def read_dictionary(path) -> Dictionary:
    entries: dict[str, tuple[int, ...]] = {}
    with open_input(path, "dictionary") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: expected "
                                "'WORD<TAB>a1 a2 ...'")
            word, text = line.split("\t", 1)
            units = []
            for tok in text.split():
                if not tok.startswith("a") or not tok[1:].isdigit():
                    raise DataError(f"{path}:{lineno}: bad unit token {tok!r}")
                units.append(int(tok[1:]))
            if not units:
                raise DataError(f"{path}:{lineno}: empty pronunciation")
            entries[word.upper()] = tuple(units)
    return Dictionary(entries)


# ---------------------------------------------------------------------------
# Decode graphs


@dataclass(frozen=True)
class DecodeGraph:
    """The left-to-right chains of a word sequence, laid end to end.

    Node p is one HMM state of unit ``units[p]``; word w owns nodes
    ``starts[w]:starts[w+1]``, so ``starts`` holds the W + 1 word
    boundaries and ``starts[-1]`` is the node count.  Edges are the
    self-loop on each node (``stay``) and the advance to the next node
    (``advance``, the exit log prob of the leaving node); the last
    node's ``advance`` is also the terminal exit cost.
    """

    units: np.ndarray            # (P,) unit id per node
    starts: np.ndarray           # (W + 1,) first node of each word, then P
    words: tuple[str, ...]       # the W words
    stay: np.ndarray             # (P,) self-loop log prob
    advance: np.ndarray          # (P,) log prob of leaving node p

    @property
    def n_nodes(self) -> int:
        return len(self.units)


@dataclass(frozen=True)
class StatePath:
    """Per-frame chain positions plus the path log-likelihood."""

    nodes: np.ndarray
    loglik: float


def _chain(words: tuple[str, ...], prons, scorer) -> DecodeGraph:
    """The graph of ``words`` with unit sequences ``prons``; raises
    :class:`DataError` naming the first word with a unit id outside
    ``[0, scorer.n_units)``."""
    n_units = scorer.n_units
    units = np.array([u for pron in prons for u in pron], dtype=np.int64)
    starts = np.fromiter(accumulate(map(len, prons), initial=0), np.int64,
                         len(prons) + 1)
    # negative ids wrap to huge unsigned values: one bound checks both ends
    wrapped = units.view(np.uint64)
    if units.size and wrapped.max() >= n_units:
        p = int(np.argmax(wrapped >= n_units))
        word = words[np.searchsorted(starts, p, side="right") - 1]
        where = f"word {word!r}" if word else "unit sequence"
        raise DataError(f"{where}: unit id {units[p]} out of range "
                        f"(model has {n_units})")
    return DecodeGraph(units=units, starts=starts, words=words,
                       stay=scorer.stay_logprob[units],
                       advance=scorer.exit_logprob[units])


def build_graph(transcript, dictionary: Dictionary, scorer) -> DecodeGraph:
    """Concatenate the left-to-right chains of the transcript's words;
    the first word missing or with a unit outside the model raises."""
    words = tuple(transcript)
    prons = [dictionary.entries.get(w) for w in words]
    if None in prons:
        known = prons.index(None)
        _chain(words[:known], prons[:known], scorer)   # earlier words first
        raise DataError(f"word {words[known]!r} not in dictionary")
    return _chain(words, prons, scorer)


def chain_graph(unit_seq, scorer) -> DecodeGraph:
    """A bare chain for an explicit unit sequence: one nameless word."""
    if len(unit_seq) == 0:
        raise DataError("empty unit sequence")
    return _chain(("",), [unit_seq], scorer)


def _word_loop(emit: np.ndarray, stay: np.ndarray, advance: np.ndarray,
               starts: np.ndarray, entry=0.0, jump: np.ndarray | None = None,
               penalty: float = 0.0):
    """The Viterbi recursion behind every search in the package.

    Cells are the positions of W left-to-right chains laid end to end:
    chain w owns cells ``starts[w]:starts[w+1]``.  ``emit`` is (T, C),
    ``stay`` and ``advance`` are the (C,) self-loop and leave log probs.
    A path enters a chain start at frame 0 (adding ``entry[w]``), stays
    or advances inside its chain and, when ``jump`` is given, may leave
    a chain end for a chain start (adding ``advance`` of the end cell,
    ``jump[from, to]`` and ``penalty``, summed in that order).  Every
    path ends by leaving a chain end.

    The forward pass keeps only scores.  The backtrace re-derives the
    decision for the one cell on the path at each frame from the same
    float expressions: staying wins ties, then advancing, then the jump
    from the lowest chain; the final chain is the first maximum.

    Returns (cell per frame, per-frame flag "entered by a jump", final
    chain, (W,) final scores).  Raises :class:`NumericError` on NaN.
    """
    if np.any(np.isnan(emit)):
        raise NumericError("NaN emission score")
    T, C = emit.shape
    first, last = starts[:-1], starts[1:] - 1
    into = np.full(C, NEG_INF)               # advance log prob into a cell
    into[1:] = advance[:-1]
    into[first] = NEG_INF
    score = np.empty((T, C))
    score[0] = NEG_INF
    score[0, first] = emit[0, first] + entry
    for t in range(1, T):
        prev = score[t - 1]
        best = np.add(prev, stay, out=score[t])
        np.maximum(best[1:], prev[:-1] + into[1:], out=best[1:])
        if jump is not None:
            ends = prev[last] + advance[last]
            # rounding is monotone, so adding the penalty after the max
            # gives the same values as adding it to every candidate
            best[first] = np.maximum(
                best[first], (ends[:, None] + jump).max(axis=0) + penalty)
        best += emit[t]
    finals = score[T - 1, last] + advance[last]
    chain = int(np.argmax(finals))
    if np.isnan(finals[chain]):
        raise NumericError("NaN path score")

    is_first = np.zeros(C, dtype=bool)
    is_first[first] = True
    chain_of = np.repeat(np.arange(len(first)), np.diff(starts))
    cells = np.empty(T, dtype=np.int64)
    jumped = np.zeros(T, dtype=bool)
    c = int(last[chain])
    for t in range(T - 1, 0, -1):
        cells[t] = c
        prev = score[t - 1]
        stay_sc = prev[c] + stay[c]
        if not is_first[c]:
            if prev[c - 1] + advance[c - 1] > stay_sc:
                c -= 1
        elif jump is not None:
            cand = (prev[last] + advance[last] + jump[:, chain_of[c]]
                    + penalty)
            src = int(np.argmax(cand))
            if cand[src] > stay_sc:
                c = int(last[src])
                jumped[t] = True
    cells[0] = c
    return cells, jumped, chain, finals


def viterbi(graph: DecodeGraph, features: np.ndarray, scorer,
            frame_scores: np.ndarray | None = None) -> StatePath:
    """Exact best path through a chain graph (one chain of the engine).

    The log-likelihood is the sum of per-frame emissions plus stay
    transitions inside nodes, advance transitions between nodes and the
    terminal exit of the last node.  Raises :class:`NoPathError` when the
    utterance has fewer frames than the chain has positions.
    """
    if frame_scores is None:
        frame_scores = scorer.frame_scores(features)
    T = frame_scores.shape[0]
    P = graph.n_nodes
    if T < P:
        raise NoPathError(f"{T} frames cannot cover {P} chain positions")
    nodes, _, _, finals = _word_loop(frame_scores[:, graph.units],
                                     graph.stay, graph.advance,
                                     np.array([0, P]))
    if finals[0] == NEG_INF:
        raise NoPathError("no valid path through the graph")
    return StatePath(nodes=nodes, loglik=float(finals[0]))


def path_loglik(graph: DecodeGraph, nodes: np.ndarray,
                frame_scores: np.ndarray) -> float:
    """Recompute a path's log-likelihood from scratch (self-consistency)."""
    total = float(frame_scores[0, graph.units[nodes[0]]])
    for t in range(1, len(nodes)):
        p_prev, p = int(nodes[t - 1]), int(nodes[t])
        if p == p_prev:
            total += graph.stay[p]
        elif p == p_prev + 1:
            total += graph.advance[p_prev]
        else:
            raise DataError("path skips a chain position")
        total += float(frame_scores[t, graph.units[p]])
    total += graph.advance[int(nodes[-1])]
    return total


def chain_loglik(frame_scores: np.ndarray, unit_seq, scorer) -> float:
    """Constrained Viterbi score of one scored utterance for a unit
    sequence; -inf when the utterance is too short."""
    try:
        return viterbi(chain_graph(unit_seq, scorer), None, scorer,
                       frame_scores=frame_scores).loglik
    except NoPathError:
        return NEG_INF


# ---------------------------------------------------------------------------
# Free-loop decoding (any unit may follow any other unit)


def free_loop_decode(frame_scores: np.ndarray, scorer):
    """Unconstrained unit-level Viterbi over a score matrix: one one-cell
    chain per unit and a jump between any two different units.

    Returns (per-frame unit labels, log-likelihood).  Ties prefer staying
    in the current unit, then the lower unit id.
    """
    N = frame_scores.shape[1]
    switch = np.zeros((N, N))
    np.fill_diagonal(switch, NEG_INF)
    labels, _, best, finals = _word_loop(
        frame_scores, scorer.stay_logprob, scorer.exit_logprob,
        np.arange(N + 1), jump=switch)
    return labels, float(finals[best])


def collapse_labels(labels) -> tuple[int, ...]:
    """Remove consecutive duplicates from a unit label sequence."""
    out = []
    for lab in labels:
        if not out or out[-1] != lab:
            out.append(int(lab))
    return tuple(out)


# ---------------------------------------------------------------------------
# Forced alignment and segmental training


@dataclass(frozen=True)
class WordSpan:
    word: str
    start: int      # first frame, inclusive
    end: int        # last frame, exclusive


def force_align(utterance: Utterance, dictionary: Dictionary, scorer,
                frame_scores: np.ndarray | None = None):
    """Viterbi alignment constrained to the utterance's transcript.

    Returns (per-frame unit labels, word spans, log-likelihood).
    """
    graph = build_graph(utterance.transcript, dictionary, scorer)
    path = viterbi(graph, utterance.features, scorer,
                   frame_scores=frame_scores)
    # the path visits every node in order: word w starts at the first
    # frame on a node >= starts[w]
    cuts = np.searchsorted(path.nodes, graph.starts).tolist()
    spans = [WordSpan(word, a, b)
             for word, a, b in zip(utterance.transcript, cuts, cuts[1:])]
    return graph.units[path.nodes], spans, path.loglik


def transition_counts_from_labels(labels, n_units: int):
    """Per-unit (stay, exit) transition counts from a frame labeling."""
    labels = np.asarray(labels)
    # the last frame of each run exits, every other frame stays
    ends = np.append(labels[1:] != labels[:-1], True)
    stays = np.bincount(labels, weights=~ends, minlength=n_units)
    exits = np.bincount(labels, weights=ends, minlength=n_units)
    return stays, exits


def align_corpus(corpus: Corpus, dictionary: Dictionary, scorer):
    """Force-align every utterance and re-estimate the transitions.

    Stay/exit probabilities come from segment-length counts; units that
    no path visits keep their current stay probability.  Returns
    (per-utterance unit labels, total Viterbi log-likelihood under the
    INPUT scorer, new stay log probs, new exit log probs).
    """
    n = scorer.n_units
    labels = []
    stays = np.zeros(n)
    exits = np.zeros(n)
    total = 0.0
    for utt in corpus.utterances:
        lab, _, loglik = force_align(utt, dictionary, scorer)
        labels.append(lab)
        total += loglik
        s, e = transition_counts_from_labels(lab, n)
        stays += s
        exits += e
    seen = (stays + exits) > 0
    stay_prob = np.exp(np.asarray(scorer.stay_logprob, dtype=np.float64))
    stay_prob[seen] = stays[seen] / (stays[seen] + exits[seen])
    stay_lp, exit_lp = make_transitions(stay_prob, n)
    return labels, total, stay_lp, exit_lp


def viterbi_train_step(corpus: Corpus, dictionary: Dictionary,
                       models: AcousticModelSet):
    """One segmental training step.

    Aligns the corpus under the input models (:func:`align_corpus`) and
    applies one EM iteration to every unit on the frames aligned to it
    (:func:`~sublex.acoustic.em_reestimate`).  Returns (new models, total
    Viterbi log-likelihood under the INPUT models, number of units that
    received no frames).
    """
    labels, total, stay_lp, exit_lp = align_corpus(corpus, dictionary,
                                                   models)
    new_models, starved = em_reestimate(
        models, np.vstack([utt.features for utt in corpus.utterances]),
        np.concatenate(labels))
    if starved:
        logger.warning("viterbi_train_step: %d unit(s) received no frames",
                       starved)
    new_models = replace(new_models, stay_logprob=stay_lp,
                         exit_logprob=exit_lp)
    return new_models, total, starved
