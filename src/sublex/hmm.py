"""Left-to-right decode graphs, Viterbi alignment and segmental training.

All arithmetic is in the log domain.  Every Viterbi search in the package
(chain alignment, free unit loop, isolated and continuous word decoding)
is one time-synchronous token-passing recursion, :func:`_forward`, on one
(frames, cells) array: the cells are the positions of several
left-to-right chains laid end to end, with stay and advance edges inside
a chain and optional chain-end to chain-start jumps, priced by a (W, W)
matrix or by one cost for every pair.  A frame is one maximum of a stay
row and an advance row: no advance enters a chain start, so a jump's
arrival is that start's advance candidate.  Whole (C,) and (W,) rows of
the layout (:class:`ChainRows`) enter frame 0 and price each chain's
exit, so a search gathers per cell only its emission columns and its
final scores.  Ties are broken the same way
everywhere: staying in a cell beats advancing, advancing beats a jump, a
jump comes from the lowest-numbered chain, and the final chain is the
lowest-numbered best one.  Paths are therefore deterministic.

Two drivers run that recursion.  Neither reads a decision of the
forward pass: each backtrace re-derives the move into the cell on the
path at each frame from the score trellis, by the recursion's own
expressions and its strict ``>``.

* :func:`_word_loop` searches one utterance, with or without jumps.  Its
  backtrace walks the path back from its last frame on Python floats:
  stay or advance inside a chain; at a chain start of the word loop,
  stay or the jump whose arriving value :func:`_forward` recorded, and
  the jump's source only when the jump wins.  :func:`viterbi` (and so
  :func:`force_align` and :func:`chain_loglik`), :func:`free_loop_decode`
  and both decoders of :mod:`sublex.decoder` use it; isolated decoding
  skips the backtrace.
* :func:`_chain_batch` searches many utterances without jumps: each
  row's chain gets its own cells and emission columns, -inf past the
  row's last frame.  Its backtrace steps every row back one frame at
  once, in whole-row operations that read the forward pass's advance
  terms, -inf into each row's first cell; scores-only callers skip it.
  Corpus alignment (:func:`align_utterances`, :func:`align_corpus`) and
  the pronunciation layer's word segments and rescoring use it.
  :func:`score_utterances` lets a GMM score the stacked frames of a
  corpus in one call.

That layout is :class:`DecodeGraph`'s: word chains laid end to end,
whose W + 1 word boundaries ``starts`` are a one-utterance search's
chain boundaries and cut :func:`force_align`'s word spans.
:func:`build_graph` lays out a transcript's entries; a batch lays its
rows' graphs end to end the same way, one chain per row.

A :class:`Dictionary` keeps the all-words search of the last scorer it
was decoded with (:meth:`Dictionary.prepare`): the graph of its sorted
words, the :class:`ChainRows` that :func:`_forward` reads of it and the
word lengths, ascending.  The LM-free decoders read it, so decoding a
test set with one dictionary and one scorer builds them once.  Neither
the entries nor that scorer's transition log probs may change
afterwards.

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
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .acoustic import (AcousticModelSet, em_reestimate, make_transitions)
from .corpus import Corpus, Utterance
from .errors import DataError, NoPathError, NumericError, open_input

logger = logging.getLogger(__name__)

NEG_INF = -np.inf

# cells (frames x chain positions of every row) of one batched chain
# search; a cell takes 8 bytes of score
BATCH_CELLS = 1 << 18

# the largest unit id a decode graph (int64) holds
MAX_UNIT_ID = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Dictionary:
    """Mapping word -> pronunciation, a nonempty sequence of unit ids.

    ``prepared`` caches the all-words search of the last scorer passed
    to :meth:`prepare`.  Neither the entries nor that scorer's
    ``stay_logprob`` and ``exit_logprob`` may change afterwards.
    """

    entries: dict[str, tuple[int, ...]]
    prepared: PreparedSearch | None = field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        for word, pron in self.entries.items():
            if len(pron) == 0:
                raise DataError(f"empty pronunciation for word {word!r}")
            if any(u < 0 for u in pron):
                raise DataError(f"negative unit id in entry for {word!r}")
            if max(pron) > MAX_UNIT_ID:
                raise DataError(f"unit id {max(pron)} in entry for "
                                f"{word!r} does not fit a decode graph")
        object.__setattr__(self, "prepared", None)

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

    def prepare(self, scorer) -> PreparedSearch:
        """The search over all words, sorted, with ``scorer``'s
        transitions.

        It is built on the first call with ``scorer`` and kept until a
        call passes another scorer object.  A unit id outside the scorer
        raises :class:`DataError` (:func:`build_graph`) and caches
        nothing.
        """
        prepared = self.prepared
        if prepared is None or prepared.scorer is not scorer:
            graph = build_graph(tuple(sorted(self.entries)), self, scorer)
            rows = _chain_rows(graph.starts, graph.advance)
            lengths = np.sort(np.diff(graph.starts))
            for a in (graph.units, graph.starts, graph.stay, graph.advance,
                      *rows, lengths):
                a.flags.writeable = False
            prepared = PreparedSearch(scorer, graph, rows, lengths)
            object.__setattr__(self, "prepared", prepared)
        return prepared


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
            word = word.upper()
            if word in entries:
                raise DataError(f"{path}:{lineno}: duplicate entry for word "
                                f"{word!r}")
            entries[word] = tuple(units)
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


class ChainRows(NamedTuple):
    """What :func:`_forward` and :func:`_word_loop` read of a chain layout
    beside ``stay`` and ``advance`` (:func:`_chain_rows`).  Rows are added
    whole: entering frame 0 is one add of ``enter``, and the final
    scores are one take of the last frame plus ``exit``."""

    first: np.ndarray            # (W,) each chain's first cell
    last: np.ndarray             # (W,) each chain's last cell
    into: np.ndarray             # (C,) advance into cell c, -inf at starts
    leave: np.ndarray            # (C,) advance at chain ends, else -inf
    enter: np.ndarray            # (C,) 0 at chain starts, else -inf
    exit: np.ndarray             # (W,) advance of each chain's last cell


class PreparedSearch(NamedTuple):
    """The search over all of a dictionary's words with one scorer's
    transitions (:meth:`Dictionary.prepare`); its arrays are read-only.
    ``lengths`` is sorted, so the number of words longer than an
    utterance is one :func:`numpy.searchsorted` away."""

    scorer: object
    graph: DecodeGraph
    rows: ChainRows
    lengths: np.ndarray          # (W,) pronunciation lengths, ascending


def _lay_out(prons) -> tuple[np.ndarray, np.ndarray]:
    """The unit sequences ``prons`` end to end: (units, W + 1 starts)."""
    units = np.array([u for pron in prons for u in pron], dtype=np.int64)
    starts = np.fromiter(accumulate(map(len, prons), initial=0), np.int64,
                         len(prons) + 1)
    return units, starts


def _chain(words: tuple[str, ...], units: np.ndarray, starts: np.ndarray,
           scorer) -> DecodeGraph:
    """The graph of ``words`` whose unit sequences are ``units`` cut at
    ``starts``; raises :class:`DataError` naming the first word with a
    unit id outside ``[0, scorer.n_units)``."""
    n_units = scorer.n_units
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
        # earlier words first
        _chain(words[:known], *_lay_out(prons[:known]), scorer)
        raise DataError(f"word {words[known]!r} not in dictionary")
    return _chain(words, *_lay_out(prons), scorer)


def chain_graph(unit_seq, scorer) -> DecodeGraph:
    """A bare chain for an explicit unit sequence: one nameless word."""
    if len(unit_seq) == 0:
        raise DataError("empty unit sequence")
    return _chain(("",), *_lay_out([unit_seq]), scorer)


def _chain_rows(starts: np.ndarray, advance: np.ndarray) -> ChainRows:
    """The :class:`ChainRows` of chains cut at ``starts`` whose cells leave
    at ``advance``."""
    first, last = starts[:-1], starts[1:] - 1
    into = np.empty(len(advance))
    into[1:] = advance[:-1]
    into[first] = NEG_INF
    exits = advance[last]
    leave = np.full(len(advance), NEG_INF)
    leave[last] = exits
    enter = np.full(len(advance), NEG_INF)
    enter[first] = 0.0
    return ChainRows(first, last, into, leave, enter, exits)


def _forward(score: np.ndarray, stay: np.ndarray, advance: np.ndarray,
             rows: ChainRows, entry=None,
             jump: np.ndarray | float | None = None, penalty: float = 0.0,
             arrivals: list | None = None):
    """The package's one Viterbi recursion, in place on a (T, C) array.

    ``score`` holds the emissions and is overwritten with the Viterbi
    score of every cell.  Cells are the positions of W left-to-right
    chains laid end to end, described by ``rows`` (:func:`_chain_rows`);
    ``stay`` and ``advance`` are the (C,) self-loop and leave log probs.
    A path enters a chain start at frame 0, stays or advances inside its
    chain and, when ``jump`` is given, may leave a chain end for a chain
    start (adding ``advance`` of the end cell, ``jump[from, to]`` and
    ``penalty``, summed in that order).  Every path ends by leaving a
    chain end.

    Frame 0 is one add of ``rows.enter``: 0 at chain starts, and -inf,
    which leaves every other cell at -inf (the callers admit no +inf or
    NaN emission).  A per-chain ``entry`` (W,) or scalar, such as an
    LM's scaled unigrams, builds its own row instead, ``entry[w]`` at
    chain start w.

    A frame is one maximum of two (C,) rows plus the emission add: each
    cell takes the better of staying (``prev + stay``) and its advance
    candidate (``prev[c - 1] + into[c]``).  ``into`` is -inf at every
    chain start, so no path advances across chains and the candidate of
    a chain start is free for the jump: its arrival is stored there,
    and the same maximum takes it.  An advance or a jump must beat
    staying by a strict ``>``, so staying wins ties.

    A scalar ``jump`` is one cost for every (from, to) pair: the word
    loop with no grammar.  Each frame then enters every chain start from
    the one best chain end (Ney, 1984): the maximum of ``prev + leave``,
    where ``leave`` is ``advance`` at chain ends and -inf elsewhere, is
    read at its ``argmax`` (the same double as a max reduction, at less
    cost; a NaN is the first NaN), and ``jump`` and ``penalty`` are
    added.  That makes no (W, W) array.  ``arrivals``, a list required
    with a scalar ``jump``, gets that sum appended at every frame after
    the first: what a jump brings to each chain start.  A (W, W) ``jump``
    gathers the chain ends, adds the matrix and takes each column's
    maximum plus ``penalty`` as that chain start's arrival.

    The frames are iterated, not indexed, and nothing but ``arrivals``
    grows with them.
    No decision is recorded: a backtrace re-derives the one it needs
    from ``score`` by the same expressions.
    """
    first, last, into, leave, enter, exits = rows
    add, maximum = np.add, np.maximum
    if entry is not None:
        enter = np.full(len(stay), NEG_INF)
        enter[first] = entry
    add(score[0], enter, out=score[0])
    best = np.empty(len(stay))
    # every cell's advance candidate; without a jump, cell 0 has none
    moved = np.full(len(stay), NEG_INF)
    moved_on, into_on = moved[1:], into[1:]
    loop = jump is not None and np.ndim(jump) == 0
    if loop:
        ended, record = np.empty(len(stay)), arrivals.append
    for prev, head, cur in zip(score, score[:, :-1], score[1:]):
        add(prev, stay, out=best)
        add(head, into_on, out=moved_on)
        if loop:
            add(prev, leave, out=ended)
            # max(e) + jump == max(e + jump): rounding is monotone
            arrival = (ended.item(ended.argmax()) + jump) + penalty
            record(arrival)
            moved[first] = arrival
        elif jump is not None:
            ends = prev[last] + exits
            # rounding is monotone, so adding the penalty after the max
            # gives the same values as adding it to every candidate
            moved[first] = (ends[:, None] + jump).max(axis=0) + penalty
        maximum(best, moved, out=best)
        add(cur, best, out=cur)


def _word_loop(frame_scores: np.ndarray, units: np.ndarray,
               stay: np.ndarray, advance: np.ndarray, rows: ChainRows,
               entry=None, jump: np.ndarray | float | None = None,
               penalty: float = 0.0, backtrace: bool = True):
    """The search of one utterance: :func:`_forward` on cells whose
    emissions are the columns ``units`` of its (T, N) score matrix.

    The backtrace re-derives the decision for the one cell on the path
    at each frame from :func:`_forward`'s float expressions, on Python
    floats (the same IEEE operations): staying wins ties, then
    advancing, then the jump from the lowest chain; the final chain is
    the first maximum.  With a scalar ``jump``, a chain start compares
    staying with the value :func:`_forward` recorded as a jump's arrival,
    the maximum of the candidates ``prev + leave + jump + penalty`` by
    monotone rounding; only a jump that wins builds them, and its source
    is their first maximum, so the lowest chain whose end ties after the
    penalty.

    Returns (cell per frame, per-frame flag "entered by a jump", final
    chain, (W,) final scores); without ``backtrace`` the first two are
    None.  Raises :class:`NoPathError` on a zero-frame score matrix and
    :class:`NumericError` on a NaN or +inf emission.
    """
    if not len(frame_scores):
        raise NoPathError("no frames to search")
    # take, unlike [:, units], keeps each frame's row contiguous
    score = np.take(frame_scores, units, axis=1)
    if not score.max() < np.inf:            # the max of a NaN is NaN
        raise NumericError("NaN or +inf emission score")
    loop = jump is not None and np.ndim(jump) == 0
    # frame 0 has no arrival
    arrivals = [None] if loop else None
    _forward(score, stay, advance, rows, entry=entry, jump=jump,
             penalty=penalty, arrivals=arrivals)
    first, last = rows.first, rows.last
    finals = score[-1].take(last)
    finals += rows.exit
    chain = int(finals.argmax())
    if math.isnan(finals.item(chain)):      # argmax stops at a NaN
        raise NumericError("NaN path score")
    if not backtrace:
        return None, None, chain, finals

    T, C = score.shape
    is_first = np.zeros(C, dtype=bool)
    is_first[first] = True
    if jump is not None and not loop:
        chain_of = np.cumsum(is_first) - 1
    at = score.item
    stay_of, advance_of = stay.tolist(), advance.tolist()
    is_first = is_first.tolist()
    cells = [0] * T
    jumped = np.zeros(T, dtype=bool)
    c = int(last[chain])
    for t in range(T - 1, 0, -1):
        cells[t] = c
        stay_sc = at(t - 1, c) + stay_of[c]
        if not is_first[c]:
            if at(t - 1, c - 1) + advance_of[c - 1] > stay_sc:
                c -= 1
        elif loop:
            if arrivals[t] > stay_sc:
                # over cells: the first maximum is the lowest best chain's end
                c = int(np.argmax(score[t - 1] + rows.leave + jump + penalty))
                jumped[t] = True
        elif jump is not None:
            cand = (score[t - 1, last] + rows.exit + jump[:, chain_of[c]]
                    + penalty)
            src = int(np.argmax(cand))
            if cand[src] > stay_sc:
                c = int(last[src])
                jumped[t] = True
    cells[0] = c
    return np.array(cells, dtype=np.int64), jumped, chain, finals


def _chain_batch(rows, backtrace: bool = False):
    """Chain searches of many utterances: row b aligns the score matrix
    ``rows[b][0]`` to the graph ``rows[b][1]``, read as one chain.

    Rows run fewest frames first, in buckets of at most ``BATCH_CELLS``
    cells (a larger row runs alone), one :func:`_forward` pass per
    bucket; a zero-frame row makes no trellis.  Returns the (B,) final
    scores, -inf for a row with no path and NaN for a row with a NaN or
    +inf emission, and with ``backtrace`` the node of each frame per row
    (else Nones), in input order.
    """
    frames = [len(s) for s, _ in rows]
    nodes = [g.n_nodes for _, g in rows]
    order = sorted((b for b in range(len(rows)) if frames[b]),
                   key=lambda b: (frames[b], nodes[b]))
    finals = np.full(len(rows), NEG_INF)
    paths = [None] * len(rows)
    while order:
        B = C = 0
        for b in order:
            if B and frames[b] * (C + nodes[b]) > BATCH_CELLS:
                break
            B, C = B + 1, C + nodes[b]
        bucket, order = order[:B], order[B:]
        finals[bucket], found = _chain_bucket([rows[b] for b in bucket],
                                              backtrace)
        for b, path in zip(bucket, found):
            paths[b] = path
    return finals, paths


def _chain_bucket(rows, backtrace):
    """:func:`_chain_batch` of one bucket: the rows' chains laid end to
    end in one (frames, cells) array, each row with its own emission
    columns, -inf past its last frame.  A function of its own, so that a
    bucket's trellis is freed before the next one's is made.

    The backtrace steps every row back one frame at a time, re-deriving
    the move into the row's cell ``c`` from the score trellis as
    :func:`_forward` decided it: advance when ``prev[c - 1] + into[c] >
    prev[c] + stay[c]``, up to the row's own last frame.  ``into`` is
    -inf at a row's first cell, so no row's path steps into the row
    before it (nor wraps, at c = 0, to the last row's last cell): a
    finite or -inf score plus -inf beats nothing."""
    graphs = [g for _, g in rows]
    frames = np.array([len(s) for s, _ in rows])
    starts = np.fromiter(accumulate((g.n_nodes for g in graphs), initial=0),
                         np.int64, len(rows) + 1)
    firsts, ends = starts[:-1], starts[1:] - 1
    stay = np.concatenate([g.stay for g in graphs])
    advance = np.concatenate([g.advance for g in graphs])
    score = np.full((frames.max(), starts[-1]), NEG_INF)
    for (s, g), a, b in zip(rows, starts, starts[1:]):
        score[:len(s), a:b] = np.take(s, g.units, axis=1)
    # a row with a NaN or +inf emission runs on -inf, or NaN (or +inf
    # plus the -inf that bars the advance across rows) would enter the
    # next row
    broken = ~np.logical_and.reduceat((score < np.inf).all(axis=0),
                                      firsts)
    score[:, np.repeat(broken, np.diff(starts))] = NEG_INF
    chains = _chain_rows(starts, advance)
    _forward(score, stay, advance, chains)
    finals = score[frames - 1, ends] + chains.exit
    finals[broken] = np.nan
    if not backtrace:
        return finals, [None] * len(rows)
    T = len(score)
    live = np.arange(T)[:, None] < frames
    path = np.empty((len(rows), T), dtype=np.int64)
    c = ends.copy()
    for t in range(T - 1, 0, -1):
        path[:, t] = c
        prev = score[t - 1]
        moves = prev[c - 1] + chains.into[c] > prev[c] + stay[c]
        moves &= live[t]
        c -= moves
    path[:, 0] = c
    path -= firsts[:, None]
    return finals, [path[k, :n] for k, n in enumerate(frames)]


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
    nodes, _, _, finals = _word_loop(
        frame_scores, graph.units, graph.stay, graph.advance,
        _chain_rows(np.array([0, P]), graph.advance))
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
        frame_scores, np.arange(N), scorer.stay_logprob,
        scorer.exit_logprob,
        _chain_rows(np.arange(N + 1), scorer.exit_logprob), jump=switch)
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


def _spans(transcript, graph: DecodeGraph, nodes) -> list[WordSpan]:
    # the path visits every node in order: word w starts at the first
    # frame on a node >= starts[w]
    cuts = np.searchsorted(nodes, graph.starts).tolist()
    return [WordSpan(word, a, b)
            for word, a, b in zip(transcript, cuts, cuts[1:])]


def force_align(utterance: Utterance, dictionary: Dictionary, scorer,
                frame_scores: np.ndarray | None = None):
    """Viterbi alignment constrained to the utterance's transcript.

    Returns (per-frame unit labels, word spans, log-likelihood).
    """
    graph = build_graph(utterance.transcript, dictionary, scorer)
    path = viterbi(graph, utterance.features, scorer,
                   frame_scores=frame_scores)
    return (graph.units[path.nodes],
            _spans(utterance.transcript, graph, path.nodes), path.loglik)


def score_utterances(utterances, scorer, frames=None) -> list[np.ndarray]:
    """The (frames, units) score matrix of each utterance.

    A GMM scores frames one by one, so it scores all the utterances'
    frames stacked in one call (``frames``, when given, are those stacked
    frames) and each matrix is a row slice of the result.  Any other
    scorer scores each utterance on its own: the network's context
    window must not cross utterances.
    """
    if not isinstance(scorer, AcousticModelSet):
        return [scorer.frame_scores(utt.features) for utt in utterances]
    if frames is None:
        frames = np.vstack([utt.features for utt in utterances])
    cuts = np.cumsum([utt.n_frames for utt in utterances])[:-1]
    return np.split(scorer.frame_scores(frames), cuts)


def align_utterances(utterances, dictionary: Dictionary, scorer, scores):
    """:func:`force_align` of many utterances in one batched search.

    ``scores`` are the utterances' score matrices
    (:func:`score_utterances`).  Returns one (labels, word spans,
    log-likelihood) per utterance, in order.  Raises the error that
    :func:`force_align` raises for the first utterance that fails.
    """
    graphs, failure = [], None
    for utt in utterances:
        try:
            graphs.append(build_graph(utt.transcript, dictionary, scorer))
        except DataError as exc:
            failure = exc
            break
    finals, paths = _chain_batch(list(zip(scores, graphs)), backtrace=True)
    failed = np.flatnonzero(np.isnan(finals) | (finals == NEG_INF))
    if failed.size:
        # the one-utterance search raises this utterance's error: a
        # NoPathError, or a NumericError for a NaN or +inf emission
        k = failed[0]
        force_align(utterances[k], dictionary, scorer, frame_scores=scores[k])
    if failure is not None:
        raise failure
    return [(graph.units[nodes], _spans(utt.transcript, graph, nodes),
             float(final))
            for utt, graph, final, nodes in zip(utterances, graphs, finals,
                                                paths)]


def transition_counts_from_labels(labels, n_units: int):
    """Per-unit (stay, exit) transition counts from a frame labeling."""
    labels = np.asarray(labels)
    # the last frame of each run exits, every other frame stays
    ends = np.append(labels[1:] != labels[:-1], True)
    stays = np.bincount(labels, weights=~ends, minlength=n_units)
    exits = np.bincount(labels, weights=ends, minlength=n_units)
    return stays, exits


def align_corpus(corpus: Corpus, dictionary: Dictionary, scorer,
                 frames: np.ndarray | None = None):
    """Force-align every utterance and re-estimate the transitions.

    The utterances run in one batched search (:func:`align_utterances`);
    ``frames``, the corpus frames stacked in order, spare a GMM scorer
    stacking them again.  Stay/exit probabilities come from
    segment-length counts; units that no path visits keep their current
    stay probability.  Returns (per-utterance unit labels, total Viterbi
    log-likelihood under the INPUT scorer, new stay log probs, new exit
    log probs).
    """
    n = scorer.n_units
    aligned = align_utterances(
        corpus.utterances, dictionary, scorer,
        score_utterances(corpus.utterances, scorer, frames))
    labels = []
    stays = np.zeros(n)
    exits = np.zeros(n)
    total = 0.0
    for lab, _, loglik in aligned:
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
    (:func:`~sublex.acoustic.em_reestimate`); both read one stack of the
    corpus frames.  Returns (new models, total Viterbi log-likelihood
    under the INPUT models, number of units that received no frames).
    """
    frames = np.vstack([utt.features for utt in corpus.utterances])
    labels, total, stay_lp, exit_lp = align_corpus(corpus, dictionary,
                                                   models, frames)
    new_models, starved = em_reestimate(models, frames,
                                        np.concatenate(labels))
    if starved:
        logger.warning("viterbi_train_step: %d unit(s) received no frames",
                       starved)
    new_models = replace(new_models, stay_logprob=stay_lp,
                         exit_logprob=exit_lp)
    return new_models, total, starved
