"""End-to-end orchestration: initialization, the refinement loop, eval.

Training is one refinement loop run twice: first with GMM units, whose
capacity grows by mixture doubling up to a cap, then with network
posteriors trained on the GMM stage's labels.  Every iteration
re-estimates the dictionary by joint alignment and the acoustic model,
and is scored by its dev-set WER.  A stage returns the snapshot
of its lowest dev WER, ties going to the higher training
log-likelihood, and stops after ``patience`` iterations without a
strict dev-WER gain.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from . import acoustic, decoder, hmm, mlp as mlpmod, pronunciation
from .acoustic import AcousticModelSet
from .corpus import Corpus
from .errors import (DataError, NoPathError, TrainingDivergedError,
                     UsageError, open_input)
from .hmm import Dictionary

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """All tunable knobs of a pipeline run."""

    n_units: int = 8
    max_mixtures: int = 4
    min_examples: int = 4
    max_units: int = 12            # pronunciation length cap
    dev_fraction: float = 0.2
    patience: int = 2
    seed: int = 0
    threads: int = 1

    gmm_max_iters: int = 10
    train_steps_per_iter: int = 5
    train_tol: float = 1e-6
    lbg_epsilon: float = 0.2
    split_epsilon: float = 0.2

    mlp_hidden: tuple[int, ...] = (64, 64)
    mlp_context: int = 5
    mlp_epochs: int = 15
    mlp_learning_rate: float = 0.05
    mlp_momentum: float = 0.9
    mlp_batch_size: int = 128
    mlp_dropout: float = 0.1
    mlp_l1: float = 1e-6
    mlp_max_iters: int = 3

    eval_mode: str = "isolated"    # or "continuous"
    lm_weight: float = 1.0
    word_insertion_penalty: float = 0.0

    def __post_init__(self):
        if self.n_units < 2:
            raise UsageError("n_units must be >= 2")
        if self.max_mixtures & (self.max_mixtures - 1):
            raise UsageError("max_mixtures must be a power of two")
        if not 0.0 < self.dev_fraction < 0.5:
            raise UsageError("dev_fraction must be in (0, 0.5)")
        if self.eval_mode not in ("isolated", "continuous"):
            raise UsageError(f"unknown eval_mode {self.eval_mode!r}")
        for key, low in (("max_mixtures", 1), ("threads", 1),
                         ("gmm_max_iters", 1), ("mlp_max_iters", 1),
                         ("max_units", 1), ("train_steps_per_iter", 1),
                         ("mlp_epochs", 1), ("mlp_batch_size", 1),
                         ("patience", 1), ("min_examples", 0), ("seed", 0),
                         ("mlp_context", 0), ("mlp_l1", 0),
                         ("split_epsilon", 0), ("train_tol", 0)):
            if not getattr(self, key) >= low:
                raise UsageError(f"{key} must be >= {low}")
        if not all(width >= 1 for width in self.mlp_hidden):
            raise UsageError("mlp_hidden widths must be >= 1")
        for key in ("mlp_learning_rate", "lbg_epsilon"):
            if not getattr(self, key) > 0:
                raise UsageError(f"{key} must be > 0")
        for key in ("mlp_dropout", "mlp_momentum"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise UsageError(f"{key} must be in [0, 1)")
        for key in ("lm_weight", "word_insertion_penalty"):
            if not np.isfinite(getattr(self, key)):
                raise UsageError(f"{key} must be finite")


def parse_config_file(path, cls=PipelineConfig, overrides=None):
    """Build a config from an ini-style ``key = value`` file.

    Unknown keys are usage errors.  ``overrides`` (a dict) wins over the
    file, which wins over the dataclass defaults.
    """
    values: dict[str, object] = {}
    fields = {f.name: f for f in dataclasses.fields(cls)}
    if path is not None:
        with open_input(path, "config file") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip()
                if key not in fields:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _coerce(key, raw.strip(), cls)
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: bad value for "
                                     f"{key!r}: {exc}") from exc
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in fields:
                raise UsageError(f"unknown config key {key!r}")
            values[key] = val
    return cls(**values)


def _coerce(key, raw, cls):
    defaults = cls()
    current = getattr(defaults, key)
    if isinstance(current, tuple):
        return tuple(int(p) for p in raw.replace(",", " ").split())
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    return raw


@dataclass(frozen=True)
class IterationReport:
    iteration: int
    stage: str                 # "gmm" or "mlp"
    capacity: int              # mixture count entering, or training epochs
    train_loglik: float
    dev_wer: float
    dict_changes: int
    n_units: int
    starved_units: int = 0


def report_rank(report: IterationReport) -> tuple[float, float]:
    """Order in which a stage selects its iterations: lowest dev WER
    first, ties broken by the higher training log-likelihood."""
    return (report.dev_wer, -report.train_loglik)


REPORT_HEADER = ("iteration,stage,capacity,train_loglik,dev_wer,"
                 "dict_changes,n_units,starved_units")


def reports_to_csv(reports, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REPORT_HEADER + "\n")
        for r in reports:
            fh.write(f"{r.iteration},{r.stage},{r.capacity},"
                     f"{r.train_loglik:.6f},{r.dev_wer:.6f},"
                     f"{r.dict_changes},{r.n_units},{r.starved_units}\n")


def read_reports_csv(path) -> list[IterationReport]:
    out = []
    with open_input(path, "report file") as fh:
        header = fh.readline().strip()
        if header != REPORT_HEADER:
            raise DataError(f"{path}: unexpected report header")
        for line in fh:
            it, stage, cap, ll, wer_, ch, n, sv = line.strip().split(",")
            out.append(IterationReport(int(it), stage, int(cap), float(ll),
                                       float(wer_), int(ch), int(n),
                                       int(sv)))
    return out


# ---------------------------------------------------------------------------
# Dev split


def split_dev(corpus: Corpus, cfg: PipelineConfig):
    """Per-word split of ``cfg.dev_fraction`` of each word's utterances,
    seeded from ``cfg.seed``; every word keeps at least one training
    utterance.  Returns (train, dev); dev may be empty for tiny corpora."""
    rng = np.random.default_rng(cfg.seed + 17)
    dev_idx: set[int] = set()
    assigned: set[int] = set()
    for word in corpus.vocabulary:
        cands = [i for i in sorted(corpus.word_index[word])
                 if i not in assigned]
        if len(cands) < 2:
            assigned.update(cands)
            continue
        k = min(int(cfg.dev_fraction * len(cands)), len(cands) - 1)
        picked = rng.permutation(len(cands))[:k]
        dev_idx.update(cands[i] for i in picked)
        assigned.update(cands)
    train_idx = [i for i in range(corpus.n_utterances) if i not in dev_idx]
    train = corpus.subset(train_idx)
    dev = corpus.subset(sorted(dev_idx)) if dev_idx else None
    return train, dev


# ---------------------------------------------------------------------------
# Initialization


def initialize(corpus: Corpus, cfg: PipelineConfig):
    """Cluster the acoustic space and bootstrap a first dictionary.

    Every unit starts as a single-Gaussian model on its LBG cluster.  The
    first dictionary estimates each word from uniform slices of the
    utterances' scores (whole utterances for one-word transcripts); such
    slices can over-segment a word beyond ``cfg.max_units``, so the cap
    applies only to the re-estimates that follow.
    """
    all_frames = np.vstack([u.features for u in corpus.utterances])
    centroids = acoustic.lbg_cluster(all_frames, cfg.n_units, cfg.seed,
                                     epsilon=cfg.lbg_epsilon)
    var_floor = 1e-3 * np.maximum(all_frames.var(axis=0), 1e-12)
    assign = acoustic.nearest_centroid(all_frames, centroids)
    variances = np.empty_like(centroids)
    for n in range(cfg.n_units):
        members = all_frames[assign == n]
        if members.shape[0] == 0:
            members = centroids[n][None, :]
        variances[n] = np.maximum(members.var(axis=0), var_floor)
    stay, exit_ = acoustic.make_transitions(0.5, cfg.n_units)
    models = AcousticModelSet(np.ones((cfg.n_units, 1)), centroids[:, None],
                              variances[:, None], stay, exit_, var_floor)

    segments: dict[str, list[np.ndarray]] = {w: [] for w in corpus.vocabulary}
    for utt, scores in zip(corpus.utterances, hmm.score_utterances(
            corpus.utterances, models, all_frames)):
        cuts = np.linspace(0, utt.n_frames, len(utt.transcript) + 1)
        cuts = np.round(cuts).astype(int)
        for w, a, b in zip(utt.transcript, cuts[:-1], cuts[1:]):
            if b > a:
                segments[w].append(scores[a:b])
    for word in sorted(corpus.vocabulary):
        if not segments[word]:
            raise DataError(f"word {word!r} has no usable bootstrap segment")
    estimates = pronunciation.estimate_pronunciations(segments, models)
    return models, Dictionary({word: estimates[word][0]
                               for word in sorted(corpus.vocabulary)})


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class EvalRow:
    utt_id: str
    ref: tuple[str, ...]
    hyp: tuple[str, ...]
    subs: int
    dels: int
    ins: int


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[EvalRow, ...]
    mode: str

    @property
    def n_ref_words(self) -> int:
        return sum(len(r.ref) for r in self.rows)

    @property
    def totals(self) -> tuple[int, int, int]:
        return (sum(r.subs for r in self.rows),
                sum(r.dels for r in self.rows),
                sum(r.ins for r in self.rows))

    @property
    def wer(self) -> float:
        s, d, i = self.totals
        return (s + d + i) / self.n_ref_words

    def render(self) -> str:
        lines = [f"# mode={self.mode}",
                 "# utt\tS\tD\tI\tref_len\thyp"]
        for r in self.rows:
            lines.append(f"{r.utt_id}\t{r.subs}\t{r.dels}\t{r.ins}\t"
                         f"{len(r.ref)}\t{' '.join(r.hyp)}")
        s, d, i = self.totals
        lines.append(f"# total S={s} D={d} I={i} ref={self.n_ref_words} "
                     f"WER={self.wer:.6f}")
        return "\n".join(lines) + "\n"


def evaluate(corpus: Corpus, dictionary: Dictionary, scorer,
             lm: decoder.BigramLm | None = None, mode: str = "isolated",
             lm_weight: float = 1.0,
             word_insertion_penalty: float = 0.0) -> EvalReport:
    """Decode every utterance and aggregate WER.  Read-only."""
    rows = []
    for utt in corpus.utterances:
        if mode == "isolated":
            word, _ = decoder.decode_isolated(utt.features, dictionary,
                                              scorer)
            hyp: tuple[str, ...] = (word,)
        else:
            result = decoder.decode_continuous(
                utt.features, dictionary, scorer, lm=lm,
                lm_weight=lm_weight,
                word_insertion_penalty=word_insertion_penalty)
            hyp = result.words
        _, s, d, i = decoder.wer(utt.transcript, hyp)
        rows.append(EvalRow(utt.id, utt.transcript, hyp, s, d, i))
    return EvalReport(tuple(rows), mode)


def write_eval_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.render())


# ---------------------------------------------------------------------------
# The refinement loop


@dataclass(frozen=True)
class StageResult:
    """Best-dev snapshot of one stage, with every iteration's report.

    ``scorer`` is an :class:`AcousticModelSet` after the GMM stage and a
    :class:`~sublex.mlp.PosteriorScorer` after the network stage;
    ``trace`` is the selected network's loss trace (empty for GMMs).
    """

    scorer: object
    dictionary: Dictionary
    reports: tuple[IterationReport, ...]
    diverged: bool = False
    trace: tuple = ()


def check_eval_mode(train: Corpus, dev: Corpus | None, cfg: PipelineConfig,
                    where: str = "run") -> None:
    """Raise :class:`UsageError` when ``cfg.eval_mode`` cannot score the
    dev split (the training set when there is none): the isolated mode
    decodes one word per utterance."""
    scored = train if dev is None else dev
    if cfg.eval_mode == "isolated" and any(len(utt.transcript) > 1
                                           for utt in scored.utterances):
        raise UsageError(f"{where}: eval_mode 'isolated' decodes one word "
                         "per utterance, but the utterances scored for dev "
                         "WER have multi-word transcripts; set eval_mode = "
                         "continuous")


def _refine(stage, steps, train, dev, cfg) -> StageResult:
    """Run one stage's iterations and keep the best snapshot.

    ``steps`` yields one (scorer, dictionary, capacity, train loglik,
    dictionary changes, starved units, loss trace) tuple per iteration.
    Each is scored on the dev set (the training set when there is none)
    and the snapshot first in :func:`report_rank` order is kept.  The
    stage stops after ``cfg.patience`` iterations without a strict
    dev-WER gain.  A divergence after at least one iteration ends the
    stage with the kept snapshot.
    """
    check_eval_mode(train, dev, cfg, f"{stage} stage")
    if dev is None:
        logger.warning("%s stage: the corpus is too small for a dev split; "
                       "dev WER is measured on the training set", stage)
        dev = train
    reports: list[IterationReport] = []
    best = None
    best_wer, gain_it = np.inf, 0
    diverged = False
    try:
        for it, (scorer, dictionary, capacity, loglik, changes, starved,
                 trace) in enumerate(steps, 1):
            dev_wer = evaluate(
                dev, dictionary, scorer, mode=cfg.eval_mode,
                lm_weight=cfg.lm_weight,
                word_insertion_penalty=cfg.word_insertion_penalty).wer
            report = IterationReport(it, stage, capacity, loglik, dev_wer,
                                     changes, cfg.n_units, starved)
            reports.append(report)
            logger.info("%s iter %d: capacity=%d loglik=%.2f dev_wer=%.4f "
                        "dict_changes=%d", stage, it, capacity, loglik,
                        dev_wer, changes)
            if best is None or report_rank(report) < best[0]:
                best = (report_rank(report), scorer, dictionary, trace)
            if dev_wer < best_wer:
                best_wer, gain_it = dev_wer, it
            elif it - gain_it >= cfg.patience:
                break
    except TrainingDivergedError as exc:
        if best is None:
            raise
        logger.warning("%s stage diverged at iteration %d: %s", stage,
                       len(reports) + 1, exc)
        diverged = True
    _, scorer, dictionary, trace = best
    return StageResult(scorer, dictionary, tuple(reports), diverged, trace)


def _gmm_steps(train, models, dictionary, cfg, pron_report):
    for _ in range(cfg.gmm_max_iters):
        capacity = models.n_components
        new_dict = pronunciation.update_dictionary(
            train, models, dictionary, cfg.min_examples, cfg.max_units,
            report=pron_report, threads=cfg.threads)
        changes = new_dict.changes_since(dictionary)
        dictionary = new_dict
        if models.n_components < cfg.max_mixtures:
            models = acoustic.split_model_set(models, cfg.split_epsilon)
        loglik = -np.inf
        starved = 0
        for _ in range(cfg.train_steps_per_iter):
            models, new_loglik, starved = hmm.viterbi_train_step(
                train, dictionary, models)
            converged = (np.isfinite(loglik) and new_loglik - loglik
                         <= cfg.train_tol * abs(loglik))
            loglik = new_loglik
            if converged:
                break
        yield models, dictionary, capacity, loglik, changes, starved, ()


def _dev_frames(dev, dictionary, scorer, cfg):
    """The dev utterances force-aligned under ``scorer`` as a network
    frame set; utterances with no path are left out.  None when no
    utterance remains."""
    if dev is None:
        return None
    feats, labels = [], []
    for utt in dev.utterances:
        try:
            lab, _, _ = hmm.force_align(utt, dictionary, scorer)
        except NoPathError:
            continue
        feats.append(utt.features)
        labels.append(lab)
    if not labels:
        return None
    return mlpmod.build_frame_set(feats, labels, cfg.mlp_context,
                                  cfg.n_units)


def _mlp_steps(train, dev, models, dictionary, cfg, pron_report):
    sizes = ((train.dim * (2 * cfg.mlp_context + 1),)
             + tuple(cfg.mlp_hidden) + (cfg.n_units,))
    feats = [utt.features for utt in train.utterances]
    scorer = models
    labels, _, stay_lp, exit_lp = hmm.align_corpus(train, dictionary, scorer)
    for it in range(1, cfg.mlp_max_iters + 1):
        data = mlpmod.build_frame_set(feats, labels, cfg.mlp_context,
                                      cfg.n_units)
        seed = cfg.seed + 1000 + it
        net, trace = mlpmod.mlp_train(
            mlpmod.init_mlp(sizes, cfg.mlp_context, seed), data, cfg, seed,
            dev=_dev_frames(dev, dictionary, scorer, cfg))
        scorer = mlpmod.PosteriorScorer(net, data.priors, stay_lp, exit_lp)
        new_dict = pronunciation.update_dictionary(
            train, scorer, dictionary, cfg.min_examples, cfg.max_units,
            report=pron_report, threads=cfg.threads)
        changes = new_dict.changes_since(dictionary)
        dictionary = new_dict
        labels, align_ll, stay_lp, exit_lp = hmm.align_corpus(
            train, dictionary, scorer)
        yield (mlpmod.PosteriorScorer(net, data.priors, stay_lp, exit_lp),
               dictionary, cfg.mlp_epochs, align_ll, changes, 0,
               tuple(trace))
        if changes == 0:
            return


def run_gmm_stage(train: Corpus, models: AcousticModelSet,
                  dictionary: Dictionary, cfg: PipelineConfig,
                  dev: Corpus | None = None,
                  pron_report: list[str] | None = None) -> StageResult:
    """GMM stage: each iteration re-estimates the dictionary, doubles the
    mixtures up to ``cfg.max_mixtures`` and runs segmental training."""
    return _refine("gmm", _gmm_steps(train, models, dictionary, cfg,
                                     pron_report), train, dev, cfg)


def run_mlp_stage(train: Corpus, models: AcousticModelSet,
                  dictionary: Dictionary, cfg: PipelineConfig,
                  dev: Corpus | None = None,
                  pron_report: list[str] | None = None) -> StageResult:
    """Network stage: replace GMM emissions by scaled network posteriors.

    The first network trains on forced alignments under the GMM
    ``models``; each iteration re-estimates the dictionary with the new
    network, re-aligns and re-estimates the transitions, and the next
    network trains on those labels.  The dev split, aligned the same
    way, is the network's dev set.  The stage also ends after an
    iteration that changes no pronunciation.
    """
    return _refine("mlp", _mlp_steps(train, dev, models, dictionary, cfg,
                                     pron_report), train, dev, cfg)


# ---------------------------------------------------------------------------
# Whole pipeline


@dataclass(frozen=True)
class PipelineResult:
    gmm: StageResult
    mlp: StageResult

    @property
    def dictionary(self) -> Dictionary:
        return self.mlp.dictionary

    @property
    def reports(self) -> tuple[IterationReport, ...]:
        return self.gmm.reports + self.mlp.reports

    def scorer(self) -> mlpmod.PosteriorScorer:
        return self.mlp.scorer


def run_pipeline(corpus: Corpus, cfg: PipelineConfig) -> PipelineResult:
    train, dev = split_dev(corpus, cfg)
    check_eval_mode(train, dev, cfg)
    models, dictionary = initialize(train, cfg)
    gmm = run_gmm_stage(train, models, dictionary, cfg, dev=dev)
    return PipelineResult(gmm, run_mlp_stage(train, gmm.scorer,
                                             gmm.dictionary, cfg, dev=dev))


# ---------------------------------------------------------------------------
# Report rendering


def stage_summary(stage: str, reports) -> str:
    """One line naming the iteration a stage selects (:func:`report_rank`)."""
    best = min(reports, key=report_rank)
    return (f"{stage}: {len(reports)} iterations, selected iteration "
            f"{best.iteration} (dev WER {best.dev_wer:.4f})")


def render_summary(report_sets: dict[str, list[IterationReport]]) -> str:
    """Plain-text summary of one or more runs: per run and stage the
    selected iteration, plus a best-dev-WER-versus-unit-count table
    across runs."""
    lines = []
    best_by_n: dict[tuple[int, str], float] = {}
    for name in sorted(report_sets):
        reports = report_sets[name]
        lines.append(f"run {name}")
        for stage in ("gmm", "mlp"):
            stage_reports = [r for r in reports if r.stage == stage]
            if not stage_reports:
                continue
            lines.append("  " + stage_summary(stage, stage_reports))
            key = (stage_reports[0].n_units, stage)
            wer = min(r.dev_wer for r in stage_reports)
            best_by_n[key] = min(wer, best_by_n.get(key, np.inf))
    if best_by_n:
        lines.append("")
        lines.append("units\tstage\tbest_dev_wer")
        for (n, stage) in sorted(best_by_n):
            lines.append(f"{n}\t{stage}\t{best_by_n[(n, stage)]:.4f}")
    return "\n".join(lines) + "\n"
