"""Maximum-likelihood pronunciation estimation from multiple utterances.

An utterance here is its (frames, units) emission score matrix; a
scorer contributes only ``n_units`` and its transitions.  Only
:func:`collect_word_segments` scores frames: each utterance once, as a
whole, cut into word segments that are row slices of its scores.

The pairwise joint aligner finds, for two utterances, the single unit
sequence and pair of left-to-right state paths that maximize the summed
path log-likelihood.  More than two utterances are folded pairwise: the
alignment of the processed utterances is frozen into a master utterance
(a sequence of groups of score rows) and the next utterance is aligned
against it.  A brute-force enumerator over short unit sequences serves
as the exact reference for small instances.

Pairwise DP complexity is O(T1 * T2 * N) in time (the switch move uses a
top-two trick instead of the naive max over source units, which would be
O(T1 * T2 * N^2)) and O(T1 * T2 * N) in memory: a score and an int8
move per cell.  The benchmark's traced
run measures it as the per-layer metrics ``pronunciation.joint_viterbi2.*``
(calls, cells, self time).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import DataError, NumericError
from .hmm import (Dictionary, NEG_INF, chain_loglik, collapse_labels,
                  force_align, free_loop_decode)

logger = logging.getLogger(__name__)

# backpointer codes
_DIAG, _LEFT, _UP, _SWITCH, _INIT = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class MasterUtterance:
    """Frozen joint alignment of several utterances.

    Column c groups the score rows
    ``scores[col_offsets[c]:col_offsets[c+1]]``; each row is the score
    row of utterance slot ``member_utt`` at frame index ``member_frame``,
    and every original frame appears in exactly one column, in temporal
    order per utterance.  ``unit_seq`` may contain consecutive repeats
    (it is the pre-collapse column labeling).
    """

    scores: np.ndarray
    col_offsets: np.ndarray
    member_utt: np.ndarray
    member_frame: np.ndarray
    unit_seq: np.ndarray
    n_merged: int

    @property
    def n_columns(self) -> int:
        return len(self.unit_seq)

    def column_counts(self) -> np.ndarray:
        return np.diff(self.col_offsets)

    def segmentations(self) -> tuple[np.ndarray, ...]:
        """Per-utterance per-frame unit labels implied by the columns."""
        col_of_row = np.repeat(np.arange(self.n_columns),
                               self.column_counts())
        row_labels = self.unit_seq[col_of_row]
        out = []
        for k in range(self.n_merged):
            rows = np.nonzero(self.member_utt == k)[0]
            order = np.argsort(self.member_frame[rows], kind="stable")
            out.append(row_labels[rows[order]])
        return tuple(out)


@dataclass(frozen=True)
class JointAlignment:
    """Result of a joint alignment: the shared collapsed unit sequence,
    its joint log-likelihood and the per-utterance frame labelings."""

    common_units: tuple[int, ...]
    joint_loglik: float
    segmentations: tuple[np.ndarray, ...]
    master: MasterUtterance


def _as_scores(u, n_units: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] != n_units:
        raise DataError(f"score matrix dimension mismatch: shape {u.shape}, "
                        f"expected (frames >= 1, {n_units})")
    return u


def _as_master(u, n_units: int) -> MasterUtterance:
    if isinstance(u, MasterUtterance):
        return u
    u = _as_scores(u, n_units)
    T = u.shape[0]
    return MasterUtterance(
        scores=u,
        col_offsets=np.arange(T + 1),
        member_utt=np.zeros(T, dtype=np.int64),
        member_frame=np.arange(T, dtype=np.int64),
        unit_seq=np.zeros(T, dtype=np.int64),  # placeholder until aligned
        n_merged=1,
    )


def joint_viterbi2(u1, u2, scorer) -> JointAlignment:
    """Exact pairwise joint Viterbi alignment.

    ``u1`` is a score matrix or a MasterUtterance; ``u2`` is a score
    matrix.  Both state paths are constrained to the same collapsed unit
    sequence and each side must emit at least one frame (or column) per
    unit.
    Moves advance u1, u2 or both inside the current unit with the
    corresponding stay costs per advancing utterance; a unit switch
    advances both and charges every participating utterance one exit
    cost.  For a master left input, a column's emission score is the sum
    of its grouped score rows and its stay cost counts once per member
    frame of the advanced column.

    Tie-breaking prefers, in order: advancing both inside the unit,
    advancing u1, advancing u2, then switching (lower source unit id
    first).  The final unit ties break toward the lower id.
    """
    master = _as_master(u1, scorer.n_units)
    e2 = _as_scores(u2, scorer.n_units)
    e1 = np.add.reduceat(master.scores, master.col_offsets[:-1], axis=0)
    m1 = master.column_counts().astype(np.float64)
    k_total = master.n_merged + 1
    sw_exit = k_total * scorer.exit_logprob

    score, move = _pair_dp(e1, m1, e2, scorer.stay_logprob, sw_exit)
    C, T2 = e1.shape[0], e2.shape[0]
    final = score[C, T2] + sw_exit
    best_a = int(np.argmax(final))
    joint_loglik = float(final[best_a])
    if np.isnan(joint_loglik):
        raise NumericError("NaN joint alignment score")

    steps = _backtrace(score, move, sw_exit, C, T2, best_a)
    new_master = _merge(master, e2, steps)
    return JointAlignment(
        common_units=collapse_labels(new_master.unit_seq),
        joint_loglik=joint_loglik,
        segmentations=new_master.segmentations(),
        master=new_master,
    )


def _pair_dp(e1, m1, e2, stay, sw_exit):
    C, N = e1.shape
    T2 = e2.shape[0]
    score = np.full((C + 1, T2 + 1, N), NEG_INF)
    move = np.full((C + 1, T2 + 1, N), -1, dtype=np.int8)
    score[1, 1] = e1[0] + e2[0]
    move[1, 1] = _INIT
    ids = np.arange(N)

    for d in range(3, C + T2 + 1):
        lo, hi = max(1, d - T2), min(C, d - 1)
        if lo > hi:
            continue
        ii = np.arange(lo, hi + 1)
        jj = d - ii
        m = len(ii)
        em1 = e1[ii - 1]                      # (m, N)
        em2 = e2[jj - 1]
        adv1 = m1[ii - 1][:, None]

        diag_prev = score[ii - 1, jj - 1]
        best = diag_prev + (adv1 + 1.0) * stay + em1 + em2
        bmove = np.full((m, N), _DIAG, dtype=np.int8)

        cand = score[ii - 1, jj] + adv1 * stay + em1
        upd = cand > best
        best = np.where(upd, cand, best)
        bmove[upd] = _LEFT

        cand = score[ii, jj - 1] + stay + em2
        upd = cand > best
        best = np.where(upd, cand, best)
        bmove[upd] = _UP

        # a switch into a comes from the top other unit
        v = diag_prev + sw_exit
        rows = np.arange(m)
        arg1 = np.argmax(v, axis=1)
        top1 = v[rows, arg1]
        v[rows, arg1] = NEG_INF
        top2 = v.max(axis=1)
        is_self = ids[None, :] == arg1[:, None]
        sw_base = np.where(is_self, top2[:, None], top1[:, None])
        cand = sw_base + em1 + em2
        upd = cand > best
        best = np.where(upd, cand, best)
        bmove[upd] = _SWITCH

        score[ii, jj] = best
        move[ii, jj] = bmove
    return score, move


def _backtrace(score, move, sw_exit, C, T2, best_a):
    """Cell steps of the best path.  A switch's source unit is re-derived
    as the first maximum of the forward pass's switch scores."""
    steps = []
    i, j, a = C, T2, best_a
    while True:
        mv = int(move[i, j, a])
        if mv < 0:
            raise NumericError("backtrace reached an unreachable cell")
        steps.append((mv, i, j, a))
        if mv == _INIT:
            break
        if mv == _DIAG:
            i, j = i - 1, j - 1
        elif mv == _LEFT:
            i -= 1
        elif mv == _UP:
            j -= 1
        else:
            i, j = i - 1, j - 1
            v = score[i, j] + sw_exit
            v[a] = NEG_INF
            a = int(np.argmax(v))
    steps.reverse()
    return steps


def _merge(master: MasterUtterance, e2: np.ndarray, steps) -> MasterUtterance:
    rows: list[np.ndarray] = []
    member_utt: list[np.ndarray] = []
    member_frame: list[np.ndarray] = []
    offsets = [0]
    units = []
    new_slot = master.n_merged
    off = master.col_offsets
    for mv, i, j, a in steps:
        take_master = mv in (_DIAG, _LEFT, _SWITCH, _INIT)
        take_new = mv in (_DIAG, _UP, _SWITCH, _INIT)
        n_rows = 0
        if take_master:
            sl = slice(off[i - 1], off[i])
            rows.append(master.scores[sl])
            member_utt.append(master.member_utt[sl])
            member_frame.append(master.member_frame[sl])
            n_rows += off[i] - off[i - 1]
        if take_new:
            rows.append(e2[j - 1][None, :])
            member_utt.append(np.array([new_slot]))
            member_frame.append(np.array([j - 1]))
            n_rows += 1
        offsets.append(offsets[-1] + n_rows)
        units.append(a)
    return MasterUtterance(
        scores=np.vstack(rows),
        col_offsets=np.array(offsets, dtype=np.int64),
        member_utt=np.concatenate(member_utt),
        member_frame=np.concatenate(member_frame),
        unit_seq=np.array(units, dtype=np.int64),
        n_merged=master.n_merged + 1,
    )


def estimate_pronunciation(utts, scorer):
    """Shared pronunciation of a word from its example score matrices.

    One utterance: the collapsed free-loop Viterbi labeling.  Two or
    more: utterances are folded longest-first through pairwise joint
    alignments, freezing the running master utterance between folds.
    Returns (unit sequence, its exact log-likelihood).
    """
    utts = [_as_scores(u, scorer.n_units) for u in utts]
    if not utts:
        raise DataError("estimate_pronunciation: no utterances")
    if len(utts) == 1:
        labels, loglik = free_loop_decode(utts[0], scorer)
        return collapse_labels(labels), loglik

    order = sorted(range(len(utts)), key=lambda k: -len(utts[k]))
    master = utts[order[0]]
    for k in order[1:]:
        master = joint_viterbi2(master, utts[k], scorer).master
    pron = collapse_labels(master.unit_seq)
    return pron, rescore_pronunciation(utts, pron, scorer)


def rescore_pronunciation(utts, pron, scorer) -> float:
    """Sum of per-utterance constrained Viterbi scores for a fixed
    pronunciation; the exact joint likelihood of that unit sequence."""
    return float(sum(chain_loglik(u, pron, scorer) for u in utts))


# ---------------------------------------------------------------------------
# Brute-force oracle


def _sequences(n_units, length):
    """All unit sequences of the given length with no consecutive repeats,
    in lexicographic order."""
    seq = [0] * length

    def rec(pos):
        for u in range(n_units):
            if pos > 0 and seq[pos - 1] == u:
                continue
            seq[pos] = u
            if pos == length - 1:
                yield tuple(seq)
            else:
                yield from rec(pos + 1)

    yield from rec(0)


def brute_force_pronunciation(utts, scorer, max_len: int):
    """Exact solver by enumeration, for small instances only.

    Scores every no-repeat unit sequence of length 1..max_len as the sum
    of per-utterance constrained Viterbi log-likelihoods and returns the
    best; ties break toward the shorter, then lexicographically smaller
    sequence.
    """
    n = scorer.n_units
    if n ** max_len > 10 ** 6:
        raise DataError(f"enumeration guard: {n}^{max_len} sequences "
                        "exceed 10^6")
    utts = [_as_scores(u, n) for u in utts]
    if not utts:
        raise DataError("brute_force_pronunciation: no utterances")
    best_seq, best_score = None, NEG_INF
    for length in range(1, max_len + 1):
        for seq in _sequences(n, length):
            total = 0.0
            for u in utts:
                total += chain_loglik(u, seq, scorer)
                if total == NEG_INF:
                    break
            if total > best_score:
                best_seq, best_score = seq, total
    return best_seq, best_score


# ---------------------------------------------------------------------------
# Dictionary update over a corpus


def collect_word_segments(corpus: Corpus, dictionary: Dictionary, scorer):
    """Score segment lists per word.

    Each utterance is scored once, as a whole.  Single-word utterances
    contribute their whole score matrix; multi-word utterances are cut
    into row slices at forced-alignment word boundaries against the
    current dictionary.
    """
    segments: dict[str, list[np.ndarray]] = {w: [] for w in corpus.vocabulary}
    for utt in corpus.utterances:
        scores = scorer.frame_scores(utt.features)
        if len(utt.transcript) == 1:
            segments[utt.transcript[0]].append(scores)
            continue
        _, spans, _ = force_align(utt, dictionary, scorer,
                                  frame_scores=scores)
        for span in spans:
            segments[span.word].append(scores[span.start:span.end])
    return segments


def _estimate_one(args):
    word, segs, scorer = args
    pron, loglik = estimate_pronunciation(segs, scorer)
    return word, pron, loglik, len(segs)


def update_dictionary(corpus: Corpus, scorer, current_dict: Dictionary,
                      min_examples: int, max_units: int,
                      report: list[str] | None = None,
                      threads: int = 1) -> Dictionary:
    """Re-estimate the pronunciation of every word with enough examples.

    Words with at least ``min_examples`` segments are replaced by the
    joint estimate over their segments; words below the threshold keep
    their current entry (words missing from the current dictionary are
    estimated from whatever segments exist).  An estimate longer than
    ``max_units`` keeps the current entry with a warning, or raises
    :class:`DataError` if there is none.  The result always covers the
    corpus vocabulary.
    """
    segments = collect_word_segments(corpus, current_dict, scorer)
    entries: dict[str, tuple[int, ...]] = {}
    rows: dict[str, str] = {}

    def keep(word):
        entries[word] = current_dict[word]
        rows[word] = f"{word}\t0\t{len(current_dict[word])}\t-"

    jobs = []
    for word in sorted(corpus.vocabulary):
        segs = segments[word]
        if not segs and word not in current_dict:
            raise DataError(f"word {word!r}: no usable segments and no "
                            "current dictionary entry")
        if len(segs) >= min_examples or (segs and word not in current_dict):
            jobs.append((word, segs, scorer))
        else:
            keep(word)

    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_estimate_one, jobs))
    else:
        results = [_estimate_one(job) for job in jobs]
    for word, pron, loglik, k_used in results:
        if len(pron) > max_units:
            msg = (f"word {word!r}: estimated pronunciation has {len(pron)} "
                   f"units, more than max_units={max_units}")
            if word not in current_dict:
                raise DataError(msg)
            logger.warning("%s; keeping the current entry", msg)
            keep(word)
            continue
        entries[word] = pron
        rows[word] = f"{word}\t{k_used}\t{len(pron)}\t{loglik:.6f}"
    if report is not None:
        report.extend(rows[w] for w in sorted(rows))
    return Dictionary(entries)
