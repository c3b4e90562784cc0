"""Maximum-likelihood pronunciation estimation from multiple utterances.

An utterance here is its (frames, units) emission score matrix; a
scorer contributes only ``n_units`` and its transitions.  Only
:func:`collect_word_segments` scores frames: each utterance once, as a
whole, cut into word segments that are row slices of its scores.

:func:`estimate_pronunciations` finds each word's unit sequence by
joint Viterbi alignment of its examples.  For two utterances the
pairwise DP is exact: it finds the single unit sequence and pair of
left-to-right state paths that maximize the summed path
log-likelihood.  More utterances are folded pairwise: the alignment of
the processed utterances is frozen into a master utterance (a sequence
of columns, each holding the summed emission scores and the count of
the member frames it aligns) and the next utterance is aligned against
it.  The returned log-likelihood is the exact rescored one
(:func:`rescore_pronunciations`).  A brute-force enumerator over short
unit sequences serves as the exact reference for small instances.

One engine runs every pairwise DP, batched across words: fold step k
aligns every word with more than k examples at once.  The words of a
step are sorted by trellis size and cut into buckets of at most
``BLOCK_CELLS`` padded cells, which bounds the memory of a step
whatever the word count.  A bucket is one anti-diagonal recursion over
a (words, C + T2 + 1, T2 + 1, N) trellis that stores cell (i, j) at
``[i + j, j]``, so the predecessors of a diagonal are slices of the two
diagonals before it; shorter words are padded with -inf emissions.  A
switch into unit a comes from the best other unit, the larger of an
exclusive prefix maximum and an exclusive suffix maximum over units.
Every cell takes the same float expressions in the same order and the
same strict ``>`` updates as a one-word DP, so scores, moves and ties
do not depend on the batch.

Pairwise DP complexity is O(T1 * T2 * N) in time (the prefix/suffix
maximum replaces the naive max over source units, which would be
O(T1 * T2 * N^2)) and O((T1 + T2) * T2 * N) in memory: a score and an
int8 move per cell of the skewed trellis.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import DataError, NumericError
from .hmm import (Dictionary, NEG_INF, _chain_batch, align_utterances,
                  chain_graph, chain_loglik, collapse_labels,
                  free_loop_decode, score_utterances)
from .hmm import force_align  # noqa: F401  (traced by name)

logger = logging.getLogger(__name__)

# backpointer codes
_DIAG, _LEFT, _UP, _SWITCH, _INIT = 0, 1, 2, 3, 4

# padded trellis cells (words x diagonals x columns x units) of one
# batched fold; a cell takes 8 bytes of score and 1 of move
BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class MasterUtterance:
    """Frozen joint alignment of ``n_merged`` utterances.

    ``emissions[c]`` is the sum, in member order, of the score rows of
    the member frames aligned to column c and ``counts[c]`` their number;
    a column holds at most one frame per member, and each member's frames
    take columns in temporal order.  ``unit_seq`` may contain consecutive
    repeats (it is the pre-collapse column labeling).
    """

    emissions: np.ndarray
    counts: np.ndarray
    unit_seq: np.ndarray
    n_merged: int

    @property
    def n_columns(self) -> int:
        return len(self.unit_seq)


def _as_scores(u, n_units: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] < 1 or u.shape[1] != n_units:
        raise DataError(f"score matrix dimension mismatch: shape {u.shape}, "
                        f"expected (frames >= 1, {n_units})")
    return u


def _as_master(u: np.ndarray) -> MasterUtterance:
    """The master of one score matrix: a column per frame."""
    T = len(u)
    return MasterUtterance(
        emissions=u,
        counts=np.ones(T, dtype=np.int64),
        unit_seq=np.zeros(T, dtype=np.int64),  # placeholder until aligned
        n_merged=1,
    )


def _fold(masters, e2s, scorer):
    """Align each master with its next utterance, ``e2s[b]``: the exact
    joint Viterbi alignment of both on one collapsed unit sequence, with
    a stay cost per advanced member frame and, at a switch, an exit cost
    per member.  Ties prefer advancing both inside the unit, then the
    master, then the utterance, then a switch (lower source unit first);
    the final unit ties toward the lower id.

    The words run smallest trellis first, in buckets of at most
    ``BLOCK_CELLS`` padded cells (a larger word runs alone), one batched
    DP per bucket.  Returns the merged masters and the joint logliks, in
    input order.
    """
    shapes = [(m.n_columns, len(e2)) for m, e2 in zip(masters, e2s)]
    cells = [(c + t + 1) * (t + 1) for c, t in shapes]
    order = sorted(range(len(masters)), key=cells.__getitem__)
    new_masters = [None] * len(masters)
    logliks = [0.0] * len(masters)
    while order:
        C = T2 = B = 0
        for b in order:
            c, t = max(C, shapes[b][0]), max(T2, shapes[b][1])
            if B and (B + 1) * (c + t + 1) * (t + 1) * scorer.n_units \
                    > BLOCK_CELLS:
                break
            C, T2, B = c, t, B + 1
        bucket, order = order[:B], order[B:]
        folded = _fold_bucket([masters[b] for b in bucket],
                              [e2s[b] for b in bucket], scorer)
        for b, (master, loglik) in zip(bucket, folded):
            new_masters[b], logliks[b] = master, loglik
    return new_masters, logliks


def _fold_bucket(masters, e2s, scorer):
    """(merged master, joint loglik) per word of one batched DP.  A
    function of its own, so that a bucket's trellis is freed before the
    next bucket's is allocated."""
    sw_exit = np.array([(m.n_merged + 1) * scorer.exit_logprob
                        for m in masters])
    C = max(m.n_columns for m in masters)
    score, move = _pair_dp(
        _pad([m.emissions for m in masters], C, NEG_INF),
        _pad([m.counts for m in masters], C, 1.0),
        _pad(e2s, max(map(len, e2s)), NEG_INF),
        scorer.stay_logprob, sw_exit)
    out = []
    for k, (master, e2) in enumerate(zip(masters, e2s)):
        C, T2 = master.n_columns, len(e2)
        final = score[k, C + T2, T2] + sw_exit[k]
        best_a = int(np.argmax(final))
        joint_loglik = float(final[best_a])
        if np.isnan(joint_loglik):
            raise NumericError("NaN joint alignment score")
        steps = _backtrace(score[k], move[k], sw_exit[k], C, T2, best_a)
        out.append((_merge(master, e2, steps), joint_loglik))
    return out


def _pad(arrays, length, fill):
    """Stack arrays along a new first axis, padding axis 0 to ``length``."""
    out = np.full((len(arrays), length) + arrays[0].shape[1:], fill)
    for k, a in enumerate(arrays):
        out[k, :len(a)] = a
    return out


def _pair_dp(e1, m1, e2, stay, sw_exit):
    """Score and move trellises of a bucket of B words.

    ``e1`` (B, C, N) holds the master columns' emissions and ``m1``
    (B, C) their member counts, ``e2`` (B, T2, N) the new utterances'
    scores and ``sw_exit`` (B, N) the switch costs.  Shorter words are
    padded with -inf emissions and a count of 1, so their padding cells
    stay -inf; no cell of a word reads its padding.  Cell (i, j) of word
    b is stored at ``[b, i + j, j]``, so a diagonal's predecessors are
    slices of the two diagonals before it, and along a diagonal the e1
    rows run backwards.
    """
    B, C, N = e1.shape
    T2 = e2.shape[1]
    D = C + T2 + 1
    score = np.full((B, D, T2 + 1, N), NEG_INF)
    move = np.full((B, D, T2 + 1, N), -1, dtype=np.int8)
    score[:, 2, 1] = e1[:, 0] + e2[:, 0]
    move[:, 2, 1] = _INIT
    r1 = e1[:, ::-1]                      # row C - 1 - (i - 1) holds e1[i - 1]
    adv1 = m1[:, ::-1, None]
    stay_diag = (adv1 + 1.0) * stay
    stay_left = adv1 * stay
    sw_exit = sw_exit[:, None, :]

    for d in range(3, D):
        lo, hi = max(1, d - C), min(T2, d - 1)
        j, jm = slice(lo, hi + 1), slice(lo - 1, hi)
        r = slice(C - d + lo, C - d + hi + 1)
        em1, em2 = r1[:, r], e2[:, jm]

        diag_prev = score[:, d - 2, jm]
        best = diag_prev + stay_diag[:, r] + em1 + em2
        bmove = np.full(best.shape, _DIAG, dtype=np.int8)

        cand = score[:, d - 1, j] + stay_left[:, r] + em1
        upd = cand > best
        best = np.where(upd, cand, best)
        bmove[upd] = _LEFT

        cand = score[:, d - 1, jm] + stay + em2
        upd = cand > best
        best = np.where(upd, cand, best)
        bmove[upd] = _UP

        # a switch into a comes from the best other unit: the larger of
        # the best unit before a and the best unit after a
        v = diag_prev + sw_exit
        other = np.full_like(v, NEG_INF)
        other[..., 1:] = np.maximum.accumulate(v[..., :-1], axis=2)
        after = np.maximum.accumulate(v[..., :0:-1], axis=2)[..., ::-1]
        np.maximum(other[..., :-1], after, out=other[..., :-1])
        cand = other + em1 + em2
        upd = cand > best
        best = np.where(upd, cand, best)
        bmove[upd] = _SWITCH

        score[:, d, j] = best
        move[:, d, j] = bmove
    return score, move


def _backtrace(score, move, sw_exit, C, T2, best_a):
    """Cell steps of the best path through one word's skewed trellis, as
    (move, unit) arrays in path order.  A switch's source unit is
    re-derived as the first maximum of the forward pass's switch scores
    with the current unit masked."""
    steps = []
    i, j, a = C, T2, best_a
    while True:
        mv = int(move[i + j, j, a])
        if mv < 0:
            raise NumericError("backtrace reached an unreachable cell")
        steps.append((mv, a))
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
            v = score[i + j, j] + sw_exit
            v[a] = NEG_INF
            a = int(np.argmax(v))
    return np.array(steps[::-1], dtype=np.int64).T.copy()


def _merge(master: MasterUtterance, e2: np.ndarray, steps) -> MasterUtterance:
    """The master of one more utterance.  A path step's column takes the
    next master column when the step advances u1, then adds the next
    frame of ``e2`` when it advances u2; the path takes every master
    column and every new frame once, in order."""
    mv, units = steps
    old = np.flatnonzero(mv != _UP)      # new column of each master column
    new = np.flatnonzero(mv != _LEFT)    # new column of each e2 frame
    emissions = np.zeros((len(mv), e2.shape[1]))
    emissions[old] = master.emissions
    emissions[new] += e2
    counts = np.zeros(len(mv), dtype=np.int64)
    counts[old] = master.counts
    counts[new] += 1
    return MasterUtterance(
        emissions=emissions,
        counts=counts,
        unit_seq=units,
        n_merged=master.n_merged + 1,
    )


def estimate_pronunciations(segments: dict, scorer) -> dict:
    """Shared pronunciation of every word from its example score matrices.

    ``segments`` maps a word to its score matrices; the result maps it to
    (unit sequence, its exact log-likelihood).  One utterance: the
    collapsed free-loop Viterbi labeling.  Two or more: utterances are
    folded longest-first (ties in input order) through pairwise joint
    alignments, freezing the running master utterance between folds.  The
    words' fold chains run in lock-step: fold step k aligns, in one
    batched call, every word with more than k utterances.
    """
    utts = {}
    for word, segs in segments.items():
        utts[word] = [_as_scores(u, scorer.n_units) for u in segs]
        if not utts[word]:
            raise DataError(f"word {word!r}: no utterances to estimate "
                            "a pronunciation from")
    chains = {w: sorted(us, key=lambda u: -len(u))
              for w, us in utts.items() if len(us) > 1}
    masters = {w: _as_master(c[0]) for w, c in chains.items()}
    for k in range(1, max(map(len, chains.values()), default=1)):
        words = [w for w, c in chains.items() if len(c) > k]
        folded, _ = _fold([masters[w] for w in words],
                          [chains[w][k] for w in words], scorer)
        masters.update(zip(words, folded))

    prons = {w: collapse_labels(m.unit_seq) for w, m in masters.items()}
    logliks = rescore_pronunciations(
        {w: (utts[w], pron) for w, pron in prons.items()}, scorer)
    out = {}
    for word, us in utts.items():
        if word in masters:
            out[word] = prons[word], logliks[word]
        else:
            labels, loglik = free_loop_decode(us[0], scorer)
            out[word] = collapse_labels(labels), loglik
    return out


def rescore_pronunciations(jobs: dict, scorer) -> dict:
    """Exact joint log-likelihood of a fixed pronunciation per word: the
    sum of its examples' constrained Viterbi scores, in one batched pass.

    ``jobs`` maps a word to (example score matrices, pronunciation).
    Every example of every word is one row of a scores-only chain search
    (:func:`chain_loglik`'s score: -inf when it is too short for the
    pronunciation); each word's sum runs in example order.  A NaN or
    +inf emission raises :class:`NumericError`.
    """
    rows = []
    for utts, pron in jobs.values():
        graph = chain_graph(pron, scorer)
        rows += [(u, graph) for u in utts]
    finals, _ = _chain_batch(rows)
    if np.any(np.isnan(finals)):
        raise NumericError("NaN or +inf emission score")
    out, k = {}, 0
    for word, (utts, _) in jobs.items():
        out[word] = float(sum(finals[k:k + len(utts)].tolist()))
        k += len(utts)
    return out


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

    Each utterance is scored once, as a whole
    (:func:`~sublex.hmm.score_utterances`).  Single-word utterances
    contribute their whole score matrix; multi-word utterances are cut
    into row slices at word boundaries of one batched forced alignment
    (:func:`~sublex.hmm.align_utterances`) against the current
    dictionary.
    """
    utts = corpus.utterances
    scores = score_utterances(utts, scorer)
    multi = [k for k, utt in enumerate(utts) if len(utt.transcript) > 1]
    aligned = dict(zip(multi, align_utterances(
        [utts[k] for k in multi], dictionary, scorer,
        [scores[k] for k in multi])))
    segments: dict[str, list[np.ndarray]] = {w: [] for w in corpus.vocabulary}
    for k, utt in enumerate(utts):
        if k not in aligned:
            segments[utt.transcript[0]].append(scores[k])
            continue
        for span in aligned[k][1]:
            segments[span.word].append(scores[k][span.start:span.end])
    return segments


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
    corpus vocabulary.  With ``threads > 1`` the words are dealt into
    ``threads`` chunks, each estimated in a worker process.
    """
    segments = collect_word_segments(corpus, current_dict, scorer)
    entries: dict[str, tuple[int, ...]] = {}
    rows: dict[str, str] = {}

    def keep(word):
        entries[word] = current_dict[word]
        rows[word] = f"{word}\t0\t{len(current_dict[word])}\t-"

    jobs = {}
    for word in sorted(corpus.vocabulary):
        segs = segments[word]
        if not segs and word not in current_dict:
            raise DataError(f"word {word!r}: no usable segments and no "
                            "current dictionary entry")
        if len(segs) >= min_examples or (segs and word not in current_dict):
            jobs[word] = segs
        else:
            keep(word)

    if threads > 1 and len(jobs) > 1:
        words = list(jobs)
        chunks = [{w: jobs[w] for w in words[k::threads]}
                  for k in range(min(threads, len(words)))]
        from concurrent.futures import ProcessPoolExecutor
        estimates = {}
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part in pool.map(estimate_pronunciations, chunks,
                                 [scorer] * len(chunks)):
                estimates.update(part)
    else:
        estimates = estimate_pronunciations(jobs, scorer)
    for word, segs in jobs.items():
        pron, loglik = estimates[word]
        if len(pron) > max_units:
            msg = (f"word {word!r}: estimated pronunciation has {len(pron)} "
                   f"units, more than max_units={max_units}")
            if word not in current_dict:
                raise DataError(msg)
            logger.warning("%s; keeping the current entry", msg)
            keep(word)
            continue
        entries[word] = pron
        rows[word] = f"{word}\t{len(segs)}\t{len(pron)}\t{loglik:.6f}"
    if report is not None:
        report.extend(rows[w] for w in sorted(rows))
    return Dictionary(entries)
