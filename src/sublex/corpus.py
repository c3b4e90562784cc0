"""Corpus data model, file I/O and a synthetic generator.

Feature files are UTF-8 text, one frame per line, space-separated decimal
floats; lines starting with ``#`` are ignored.  An ``.scp`` file lists
``utt-id <whitespace> feature-file-path`` and a ``.trn`` file lists
``utt-id <TAB> word word ...``.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import DataError, open_input

logger = logging.getLogger(__name__)


def check_features(feats: np.ndarray, name: str = "features") -> np.ndarray:
    """Validate a feature matrix: 2-D, at least one frame, all finite."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
        raise DataError(f"{name}: expected a non-empty 2-D frame matrix, "
                        f"got shape {feats.shape}")
    if not np.all(np.isfinite(feats)):
        raise DataError(f"{name}: contains NaN or Inf values")
    return feats


@dataclass(frozen=True)
class Utterance:
    """One utterance: an id, a (frames x dim) feature matrix, a transcript."""

    id: str
    features: np.ndarray
    transcript: tuple[str, ...]

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of utterances with a word index.

    ``word_index[w]`` is exactly the set of indices of utterances whose
    transcript contains ``w``.  Words are case-folded to uppercase.
    """

    utterances: tuple[Utterance, ...]
    vocabulary: tuple[str, ...] = field(default=())
    word_index: dict[str, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.utterances:
            raise DataError("corpus must contain at least one utterance")
        if not self.vocabulary:
            vocab, index = _build_index(self.utterances)
            object.__setattr__(self, "vocabulary", vocab)
            object.__setattr__(self, "word_index", index)

    @property
    def n_utterances(self) -> int:
        return len(self.utterances)

    @property
    def dim(self) -> int:
        return self.utterances[0].dim

    def subset(self, indices) -> "Corpus":
        return Corpus(tuple(self.utterances[i] for i in sorted(indices)))


def _build_index(utterances):
    seen_ids = set()
    vocab: list[str] = []
    index: dict[str, set[int]] = {}
    dim = utterances[0].dim
    for i, utt in enumerate(utterances):
        if utt.id in seen_ids:
            raise DataError(f"duplicate utterance id {utt.id!r}")
        seen_ids.add(utt.id)
        if utt.dim != dim:
            raise DataError(
                f"utterance {utt.id!r}: feature dimension {utt.dim} "
                f"differs from corpus dimension {dim}")
        if not utt.transcript:
            raise DataError(f"utterance {utt.id!r}: empty transcript")
        for word in utt.transcript:
            if word not in index:
                vocab.append(word)
                index[word] = set()
            index[word].add(i)
    frozen = {w: frozenset(s) for w, s in index.items()}
    return tuple(sorted(vocab)), frozen


# ---------------------------------------------------------------------------
# File I/O


def read_feature_file(path) -> np.ndarray:
    rows = []
    with open_input(path, "feature file") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad float: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no frames")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    return check_features(np.array(rows, dtype=np.float64), name=str(path))


def write_feature_file(path, feats: np.ndarray) -> None:
    feats = np.asarray(feats, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for row in feats:
            fh.write(" ".join(f"{x:.17g}" for x in row))
            fh.write("\n")


def read_transcripts(trn_path) -> dict[str, tuple[str, ...]]:
    """Read a ``.trn`` file: ``utt-id <TAB> word word ...`` per line."""
    transcripts: dict[str, tuple[str, ...]] = {}
    with open_input(trn_path, "transcript file") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if "\t" not in line:
                raise DataError(f"{trn_path}:{lineno}: expected "
                                "'utt-id<TAB>word ...'")
            utt_id, text = line.split("\t", 1)
            words = tuple(w.upper() for w in text.split())
            if not words:
                raise DataError(f"{trn_path}:{lineno}: empty transcript "
                                f"for id {utt_id!r}")
            if utt_id in transcripts:
                raise DataError(f"{trn_path}:{lineno}: duplicate id {utt_id!r}")
            transcripts[utt_id] = words
    return transcripts


def _scp_entries(scp_path):
    """Yield (utt-id, feature-file path) per scp line, in file order.

    Relative feature paths are resolved against the scp file's directory.
    """
    scp_dir = os.path.dirname(os.path.abspath(scp_path))
    listed = False
    with open_input(scp_path, "scp file") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise DataError(f"{scp_path}:{lineno}: expected "
                                "'utt-id feature-file-path'")
            listed = True
            yield parts[0], os.path.join(scp_dir, parts[1].strip())
    if not listed:
        raise DataError(f"{scp_path}: no utterances listed")


def load_corpus(scp_path, transcript_path) -> Corpus:
    """Load a corpus from an scp list and a transcript file.

    Every scp id must have a transcript line and all feature files must
    share one dimensionality; violations are reported with the offending
    utterance id.
    """
    transcripts = read_transcripts(transcript_path)
    utterances = []
    dim = None
    for utt_id, feat_path in _scp_entries(scp_path):
        if utt_id not in transcripts:
            raise DataError(f"missing transcript for utterance {utt_id!r}")
        feats = read_feature_file(feat_path)
        if dim is None:
            dim = feats.shape[1]
        elif feats.shape[1] != dim:
            raise DataError(
                f"utterance {utt_id!r}: feature dimension "
                f"{feats.shape[1]} does not match corpus dimension {dim}")
        utterances.append(Utterance(utt_id, feats, transcripts[utt_id]))
    return Corpus(tuple(utterances))


def load_scp_entries(scp_path) -> list[tuple[str, np.ndarray]]:
    """(utt-id, features) pairs from an scp file; no transcripts needed."""
    return [(utt_id, read_feature_file(feat_path))
            for utt_id, feat_path in _scp_entries(scp_path)]


def write_corpus(corpus: Corpus, out_dir, prefix: str) -> tuple[str, str]:
    """Write feature files plus ``<prefix>.scp`` / ``<prefix>.trn``."""
    feat_dir = os.path.join(out_dir, f"{prefix}_feats")
    os.makedirs(feat_dir, exist_ok=True)
    scp_path = os.path.join(out_dir, f"{prefix}.scp")
    trn_path = os.path.join(out_dir, f"{prefix}.trn")
    with open(scp_path, "w", encoding="utf-8") as scp, \
            open(trn_path, "w", encoding="utf-8") as trn:
        for utt in corpus.utterances:
            rel = os.path.join(f"{prefix}_feats", f"{utt.id}.txt")
            write_feature_file(os.path.join(out_dir, rel), utt.features)
            scp.write(f"{utt.id} {rel}\n")
            trn.write(f"{utt.id}\t{' '.join(utt.transcript)}\n")
    return scp_path, trn_path


# ---------------------------------------------------------------------------
# Synthetic corpus with known ground truth


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic-corpus generator."""

    n_words: int = 20
    n_units: int = 8
    utts_per_word: int = 20
    frames_per_unit: tuple[int, int] = (3, 8)
    noise_std: float = 1.0
    separation: float = 6.0        # mean separation in noise-std units
    dim: int = 2
    pron_len: tuple[int, int] = (2, 5)
    words_per_utterance: int = 1

    def validate(self):
        if self.n_words < 1 or self.n_units < 2:
            raise DataError("synthetic spec needs >= 1 word and >= 2 units")
        if self.utts_per_word < 1:
            raise DataError("utts_per_word must be >= 1")
        if self.separation < 4.0:
            raise DataError("unit mean separation must be >= 4 noise stds")
        lo, hi = self.frames_per_unit
        if lo < 1 or hi < lo:
            raise DataError(f"bad frames_per_unit range {self.frames_per_unit}")


@dataclass(frozen=True)
class SyntheticGroundTruth:
    """Generator parameters frozen alongside a synthetic corpus."""

    true_unit_count: int
    true_dictionary: dict[str, tuple[int, ...]]
    true_means: np.ndarray        # (n_units, dim)
    true_vars: np.ndarray         # (n_units, dim)
    seed: int
    true_frame_labels: dict[str, np.ndarray] = field(default_factory=dict)


def _place_unit_means(spec: SynthSpec, rng) -> np.ndarray:
    """Unit means on a jittered grid with guaranteed pairwise separation."""
    gap = spec.separation * spec.noise_std
    side = int(np.ceil(spec.n_units ** (1.0 / spec.dim)))
    cells = []
    for flat in range(side ** spec.dim):
        coord, rem = [], flat
        for _ in range(spec.dim):
            coord.append(rem % side)
            rem //= side
        cells.append(coord)
    order = rng.permutation(len(cells))[:spec.n_units]
    # jitter strictly below gap/(4*sqrt(dim)) keeps distances > separation
    jitter = gap / (8.0 * np.sqrt(spec.dim))
    means = np.zeros((spec.n_units, spec.dim))
    for u, cell_idx in enumerate(order):
        base = np.array(cells[cell_idx], dtype=np.float64) * 2.0 * gap
        means[u] = base + rng.uniform(-jitter, jitter, size=spec.dim)
    return means


def _draw_pronunciations(spec: SynthSpec, rng) -> list[tuple[int, ...]]:
    """Distinct unit sequences with no two consecutive identical units."""
    prons: list[tuple[int, ...]] = []
    seen = set()
    lo, hi = spec.pron_len
    max_tries = 1000 * spec.n_words
    for _ in range(max_tries):
        if len(prons) == spec.n_words:
            break
        length = int(rng.integers(lo, hi + 1))
        seq = [int(rng.integers(spec.n_units))]
        while len(seq) < length:
            nxt = int(rng.integers(spec.n_units - 1))
            if nxt >= seq[-1]:
                nxt += 1
            seq.append(nxt)
        tup = tuple(seq)
        if tup not in seen:
            seen.add(tup)
            prons.append(tup)
    if len(prons) < spec.n_words:
        raise DataError("could not draw enough distinct pronunciations; "
                        "enlarge pron_len range or n_units")
    return prons


def synth_corpus(spec: SynthSpec, seed: int,
                 truth: SyntheticGroundTruth | None = None,
                 id_prefix: str = "u") -> tuple[Corpus, SyntheticGroundTruth]:
    """Generate a corpus by sampling each word's true pronunciation.

    Each utterance walks the pronunciation left to right, emitting a
    uniformly drawn number of frames per unit from that unit's Gaussian.
    Pure function of (spec, seed, truth): same inputs give a bit-identical
    corpus.  Pass an existing ``truth`` to sample a held-out set from the
    same generator.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    if truth is None:
        means = _place_unit_means(spec, rng)
        variances = np.full((spec.n_units, spec.dim),
                            spec.noise_std ** 2, dtype=np.float64)
        prons = _draw_pronunciations(spec, rng)
        words = [f"W{i:03d}" for i in range(spec.n_words)]
        truth = SyntheticGroundTruth(
            true_unit_count=spec.n_units,
            true_dictionary=dict(zip(words, prons)),
            true_means=means,
            true_vars=variances,
            seed=seed,
        )
    else:
        words = sorted(truth.true_dictionary)

    pool_arr = np.repeat(words, spec.utts_per_word)
    rng.shuffle(pool_arr)
    pool = pool_arr.tolist()               # plain str, not np.str_
    wpu = max(1, spec.words_per_utterance)
    groups = [tuple(pool[i:i + wpu])
              for i in range(0, len(pool) - wpu + 1, wpu)]
    leftover = len(pool) % wpu
    if leftover:
        groups.append(tuple(pool[-leftover:]))

    lo, hi = spec.frames_per_unit
    utterances = []
    frame_labels: dict[str, np.ndarray] = {}
    for i, transcript in enumerate(groups):
        frames, labels = [], []
        for word in transcript:
            for unit in truth.true_dictionary[word]:
                n = int(rng.integers(lo, hi + 1))
                sample = rng.normal(truth.true_means[unit],
                                    np.sqrt(truth.true_vars[unit]),
                                    size=(n, spec.dim))
                frames.append(sample)
                labels.extend([unit] * n)
        utt_id = f"{id_prefix}{i:05d}"
        utterances.append(Utterance(utt_id, np.vstack(frames), transcript))
        frame_labels[utt_id] = np.array(labels, dtype=np.int64)

    full_truth = SyntheticGroundTruth(
        true_unit_count=truth.true_unit_count,
        true_dictionary=dict(truth.true_dictionary),
        true_means=truth.true_means,
        true_vars=truth.true_vars,
        seed=truth.seed,
        true_frame_labels=frame_labels,
    )
    return Corpus(tuple(utterances)), full_truth


def write_ground_truth(truth: SyntheticGroundTruth, path) -> None:
    """Versioned plain-text key/value serialization of the ground truth."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("version=1\n")
        fh.write(f"unit_count={truth.true_unit_count}\n")
        fh.write(f"seed={truth.seed}\n")
        for word in sorted(truth.true_dictionary):
            units = " ".join(str(u) for u in truth.true_dictionary[word])
            fh.write(f"pron {word} {units}\n")


def read_ground_truth(path) -> SyntheticGroundTruth:
    unit_count = None
    seed = 0
    prons: dict[str, tuple[int, ...]] = {}
    with open_input(path, "ground-truth file") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("version="):
                if line != "version=1":
                    raise DataError(f"{path}:{lineno}: unsupported {line!r}")
            elif line.startswith("unit_count="):
                unit_count = int(line.split("=", 1)[1])
            elif line.startswith("seed="):
                seed = int(line.split("=", 1)[1])
            elif line.startswith("pron "):
                parts = line.split()
                if len(parts) < 3:
                    raise DataError(f"{path}:{lineno}: bad pron line")
                prons[parts[1]] = tuple(int(t) for t in parts[2:])
            else:
                raise DataError(f"{path}:{lineno}: unknown key in {line!r}")
    if unit_count is None:
        raise DataError(f"{path}: missing unit_count")
    return SyntheticGroundTruth(
        true_unit_count=unit_count,
        true_dictionary=prons,
        true_means=np.zeros((unit_count, 0)),
        true_vars=np.zeros((unit_count, 0)),
        seed=seed,
    )


def best_unit_mapping(learned_labels, true_labels, n_learned: int,
                      n_true: int) -> dict[int, int]:
    """Single best global relabeling learned-unit -> true-unit.

    Solves an assignment problem over frame co-occurrence counts between
    two labelings of the same frames (lists of equal-length label arrays).
    """
    counts = np.zeros((n_learned, n_true), dtype=np.int64)
    for la, lb in zip(learned_labels, true_labels):
        la = np.asarray(la)
        lb = np.asarray(lb)
        if la.shape != lb.shape:
            raise DataError("label sequences differ in length")
        np.add.at(counts, (la, lb), 1)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return {int(r): int(c) for r, c in zip(rows, cols)}
