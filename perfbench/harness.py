"""The sublex benchmark: workloads, measurement, correctness gate, metrics.

One run of one workload, single process, ``PipelineConfig.threads=1``:

1. Generate the workload's corpora from the seed and write them under
   ``.bench_work/`` (not timed).  Corpus k of a run with seed s is the
   generator's corpus at seed s + k.
2. Set-up: load every corpus back with ``corpus.load_corpus``, again and
   again for at least ``SETUP_MIN_S`` seconds; ``setup_s`` is the median
   of the repeats.
3. Train every corpus with ``pipeline.run_pipeline`` (GMM + MLP).
4. Decode window of ``--seconds``, measured from the end of training:
   decode the held-out test utterances one at a time with the trained
   scorer, in passes over the test sets, until the window is used up (at
   least one pass).  An utterance's decode latency is its fastest decode
   in the window, which keeps the slow phases of a shared machine out of
   the decode figures.
5. Quality (test word accuracy, dictionary exact-match and frame-label
   accuracy after ``corpus.best_unit_mapping``) and the correctness gate.

With tracing on, set-up, training and decoding run under :class:`Tracer`,
which reports the per-layer numbers; the end-to-end numbers come from
the untraced run.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from tracing import Tracer, span_cost

SETUP_MIN_S = 2.0          # set-up loads repeat for at least this long
SETUP_MIN_REPEATS = 10
GATE_SAMPLE = 5            # test utterances per corpus re-checked by the gate


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    A run with seed s trains ``n_corpora`` corpora; corpus k is
    ``synth_corpus(spec, s + k)`` (its language, the unit means and true
    dictionary, and its training utterances) and is trained with
    pipeline seed s + k.  With a ``language_seed``, every run speaks the
    language the generator draws at that seed and s + k draws only the
    utterances.  A test set is drawn from its corpus's language at a seed
    derived from s + k.
    """

    why: str
    spec: dict                 # SynthSpec fields of each training corpus
    test_utts_per_word: int
    mode: str                  # "isolated" or "continuous"
    n_corpora: int = 1
    language_seed: int | None = None
    config: dict = field(default_factory=dict)   # PipelineConfig overrides


# On the isolated-word workloads the language (its pronunciation lengths)
# sets the decode work per utterance, and a language per seed spread the
# decode timings by up to 0.39 over ten seeds, so both speak the language
# of generator seed 0.  A second MLP round runs only when the first one
# changes a pronunciation (about one seed in six), which takes a third
# longer; one round keeps the work per run fixed.
ONE_MLP_ROUND = dict(mlp_max_iters=1)

WORKLOADS = {
    "isolated": Workload(
        why="14 words x 20 utterances, dim 2, one language: the pairwise "
            "joint DP (joint_viterbi2) dominates training; word accuracy "
            "is saturated and guards against regressions",
        spec=dict(n_words=14, utts_per_word=20, dim=2, n_units=8),
        test_utts_per_word=20, mode="isolated", language_seed=0,
        config=ONE_MLP_ROUND),
    "continuous": Workload(
        why="corpora at seeds s..s+3, 10 words, 3 words per utterance, "
            "separation 4: multi-word alignment, word-loop decoding, 3 MLP "
            "rounds, unsaturated quality, the max_units crash (s+1 at s=0)",
        spec=dict(n_words=10, utts_per_word=10, dim=2, n_units=8,
                  words_per_utterance=3, separation=4.0),
        test_utts_per_word=30, mode="continuous", n_corpora=4),
    "wide": Workload(
        why="40 words x 6 utterances, dim 13, 16 units, one language: "
            "emission scoring and 40 Viterbi passes per decoded utterance "
            "carry the load, the joint DP is small",
        spec=dict(n_words=40, utts_per_word=6, dim=13, n_units=16),
        test_utts_per_word=5, mode="isolated", language_seed=0,
        config=ONE_MLP_ROUND),
    # seconds-long run of both code paths, for the benchmark's own tests
    "smoke": Workload(
        why="tiny corpus for the benchmark's own tests",
        spec=dict(n_words=4, utts_per_word=6, dim=2, n_units=4,
                  pron_len=(2, 3)),
        test_utts_per_word=3, mode="isolated",
        config=dict(gmm_max_iters=2, mlp_max_iters=1, mlp_epochs=2,
                    mlp_hidden=(8,), max_mixtures=2)),
}

BENCH_WORKLOADS = ("isolated", "continuous", "wide")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_frames_per_s": ("frames/s", "higher"),
    "decode_frames_per_s": ("frames/s", "higher"),
    "decode_ms_p50": ("ms", "lower"),
    "decode_ms_p90": ("ms", "lower"),
    "test_word_acc": ("share", "higher"),
    "label_acc": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

_LAYER_COUNTS = {
    "pronunciation.joint_viterbi2": ("calls", "cells", "self_s"),
    "pronunciation.estimate_pronunciation": ("calls", "failed", "self_s"),
    "pronunciation.update_dictionary": ("self_s",),
    "acoustic.frame_scores": ("calls", "frames", "self_s"),
    "acoustic.em_reestimate": ("self_s",),
    "acoustic.lbg_cluster": ("self_s",),
    "acoustic.split_model_set": ("self_s",),
    "hmm.viterbi": ("calls", "cells", "self_s"),
    "hmm.force_align": ("calls", "self_s"),
    "hmm.free_loop_decode": ("calls",),
    "hmm.viterbi_train_step": ("calls", "self_s"),
    "decoder.decode_isolated": ("calls",),
    "decoder.decode_continuous": ("calls",),
    "mlp.frame_scores": ("calls", "frames", "self_s"),
    "mlp.mlp_train": ("calls", "self_s"),
    "pipeline.initialize": ("self_s",),
    "pipeline.run_gmm_stage": ("self_s",),
    "pipeline.run_mlp_stage": ("self_s",),
    "pipeline.evaluate": ("self_s",),
    "corpus.load_corpus": ("self_s",),
    "corpus.read_feature_file": ("self_s",),
}

PER_LAYER = {
    f"{layer}.{kind}": ("s" if kind == "self_s" else "count", "lower")
    for layer, kinds in _LAYER_COUNTS.items() for kind in kinds
}
PER_LAYER.update({
    # both decoders' self time: either one alone is 0 on some workloads
    "decoder.decode.self_s": ("s", "lower"),
    "acoustic.frame_scores.frames_per_train_frame": ("ratio", "lower"),
    "pipeline.gmm_iters": ("count", "lower"),
    "pipeline.mlp_iters": ("count", "lower"),
    # seed-driven spread too wide for a bounded end-to-end metric
    "dict_exact": ("share", "higher"),
    "fail_share": ("share", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.remainder_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s_est": ("s", "lower"),
})


class HarnessError(Exception):
    """Nothing can be measured (no sublex sources, or no corpus trained)."""


# ---------------------------------------------------------------------------
# Corpora


@dataclass
class CorpusCase:
    """One training corpus with its held-out test set and ground truth."""

    slot: int
    train_seed: int
    test_seed: int
    train: object
    test: object
    truth: object
    train_paths: tuple[str, str] = ("", "")
    test_paths: tuple[str, str] = ("", "")
    result: object = None
    error: str | None = None
    train_s: float = 0.0


def test_seed(train_seed: int) -> int:
    """Generator seed of the held-out utterances of the corpus that the
    generator draws at ``train_seed``."""
    return int(np.random.SeedSequence([train_seed, 1]).generate_state(1)[0])


def make_cases(workload: Workload, seed: int, work_dir: str):
    """Generate and write the workload's corpora; a pure function of the
    seed (the written files are removed and rewritten)."""
    from sublex import corpus

    shutil.rmtree(work_dir, ignore_errors=True)
    spec = corpus.SynthSpec(**workload.spec)
    test_spec = replace(spec, utts_per_word=workload.test_utts_per_word)
    cases = []
    language = None
    if workload.language_seed is not None:
        _, language = corpus.synth_corpus(spec, workload.language_seed)
    for k in range(workload.n_corpora):
        train_seed = seed + k
        train, truth = corpus.synth_corpus(spec, train_seed, truth=language)
        test, _ = corpus.synth_corpus(test_spec, test_seed(train_seed),
                                      truth=truth, id_prefix="t")
        out = os.path.join(work_dir, f"c{k}")
        os.makedirs(out)
        cases.append(CorpusCase(
            k, train_seed, test_seed(train_seed), train, test, truth,
            corpus.write_corpus(train, out, "train"),
            corpus.write_corpus(test, out, "test")))
    return cases


def _same_corpus(a, b) -> bool:
    return (len(a.utterances) == len(b.utterances)
            and all(x.id == y.id and x.transcript == y.transcript
                    and np.array_equal(x.features, y.features)
                    for x, y in zip(a.utterances, b.utterances)))


# ---------------------------------------------------------------------------
# Measurement


def load_all(cases) -> tuple[list[float], list[str]]:
    """Load every corpus from disk, again and again for at least
    SETUP_MIN_S seconds and SETUP_MIN_REPEATS times.  Returns the
    per-repeat seconds and the corpora that did not load back unchanged;
    the last load replaces the generated corpora in ``cases``."""
    from sublex import corpus

    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        loaded = [(corpus.load_corpus(*c.train_paths),
                   corpus.load_corpus(*c.test_paths)) for c in cases]
        times.append(time.perf_counter() - t0)
    problems = []
    for case, (train, test) in zip(cases, loaded):
        if not (_same_corpus(case.train, train)
                and _same_corpus(case.test, test)):
            problems.append(f"corpus {case.slot}: loaded corpus differs "
                            "from the generated one")
        case.train, case.test = train, test
    return times, problems


def train_all(cases, workload: Workload, name: str, run_seed: int):
    from sublex import pipeline
    from sublex.errors import SublexError

    for case in cases:
        cfg = pipeline.PipelineConfig(
            n_units=workload.spec["n_units"], seed=case.train_seed, threads=1,
            eval_mode=workload.mode, **workload.config)
        t0 = time.perf_counter()
        try:
            case.result = pipeline.run_pipeline(case.train, cfg)
        except SublexError as exc:
            case.error = (f"workload={name} seed={run_seed} "
                          f"corpus={case.slot} train_seed={case.train_seed}: "
                          f"{type(exc).__name__}: {exc}")
        case.train_s = time.perf_counter() - t0


def _decode(mode, features, dictionary, scorer) -> tuple[str, ...]:
    from sublex import decoder

    if mode == "isolated":
        return (decoder.decode_isolated(features, dictionary, scorer)[0],)
    return decoder.decode_continuous(features, dictionary, scorer).words


@dataclass
class DecodeLog:
    """Per test utterance, keyed by (case index, utterance id): the
    fastest decode seconds, the frame count and the first hypothesis."""

    best_s: dict = field(default_factory=dict)
    frames: dict = field(default_factory=dict)
    hyps: dict = field(default_factory=dict)
    decodes: int = 0
    passes: int = 0
    failed: int = 0
    unstable: list = field(default_factory=list)


def decode_window(cases, mode: str, deadline: float) -> DecodeLog:
    """Decode the test sets of the trained corpora, one utterance at a
    time, in passes until ``deadline`` (at least one full pass)."""
    from sublex.errors import SublexError

    log = DecodeLog()
    items = [(ci, c.result.dictionary, c.result.scorer(), utt)
             for ci, c in enumerate(cases) if c.result is not None
             for utt in c.test.utterances]
    if not items:
        return log
    clock = time.perf_counter
    while log.passes == 0 or clock() < deadline:
        for ci, dictionary, scorer, utt in items:
            if log.passes and clock() >= deadline:
                break
            t0 = clock()
            try:
                hyp = _decode(mode, utt.features, dictionary, scorer)
            except SublexError:
                hyp = None
            dt = clock() - t0
            log.decodes += 1
            key = (ci, utt.id)
            if log.passes == 0:
                log.best_s[key] = dt
                log.frames[key] = utt.n_frames
                log.hyps[key] = hyp
                log.failed += hyp is None
            else:
                log.best_s[key] = min(log.best_s[key], dt)
                if log.hyps[key] != hyp:
                    log.unstable.append(key)
        log.passes += 1
    return log


# ---------------------------------------------------------------------------
# Quality and correctness


def word_accuracy(cases, log: DecodeLog) -> float:
    """1 - WER over the test sets of the trained corpora; a failed decode
    counts as deleting its reference words."""
    from sublex import decoder

    errors = ref_words = 0
    for ci, case in enumerate(cases):
        if case.result is None:
            continue
        for utt in case.test.utterances:
            hyp = log.hyps[(ci, utt.id)] or ()
            _, s, d, i = decoder.wer(utt.transcript, hyp)
            errors += s + d + i
            ref_words += len(utt.transcript)
    return 1.0 - errors / ref_words


def label_quality(cases) -> tuple[float, float]:
    """(dictionary exact-match share, frame-label accuracy) against the
    ground truth after the best global learned->true unit mapping, over
    the training utterances of the trained corpora."""
    from sublex import corpus, hmm
    from sublex.errors import SublexError

    exact = words = hits = frames = 0
    for case in cases:
        res = case.result
        if res is None:
            continue
        dictionary, scorer = res.dictionary, res.scorer()
        learned, true = [], []
        for utt in case.train.utterances:
            frames += utt.n_frames
            try:
                labels, _, _ = hmm.force_align(utt, dictionary, scorer)
            except SublexError:
                continue            # counts as all frames wrong
            learned.append(labels)
            true.append(case.truth.true_frame_labels[utt.id])
        mapping = corpus.best_unit_mapping(learned, true, scorer.n_units,
                                           case.truth.true_unit_count)
        lut = np.full(scorer.n_units, -1, dtype=np.int64)
        for src, dst in mapping.items():
            lut[src] = dst
        hits += sum(int(np.sum(lut[a] == b)) for a, b in zip(learned, true))
        for word, pron in case.truth.true_dictionary.items():
            words += 1
            exact += tuple(int(lut[u]) for u in dictionary[word]) == pron
    return exact / words, hits / frames


def gate(cases, log: DecodeLog, quality: dict) -> list[str]:
    """Correctness checks; returns the failures (empty when correct)."""
    from sublex import hmm

    problems = []
    if log.unstable:
        problems.append(f"decode not deterministic for {log.unstable[:3]}")
    for ci, case in enumerate(cases):
        if case.result is None:
            continue
        dictionary, scorer = case.result.dictionary, case.result.scorer()
        for n, utt in enumerate(case.test.utterances):
            hyp = log.hyps[(ci, utt.id)]
            if hyp is None:
                continue
            missing = [w for w in hyp if w not in dictionary]
            if missing:
                problems.append(f"{utt.id}: hypothesis words {missing} "
                                "not in the dictionary")
                continue
            if n >= GATE_SAMPLE:
                continue
            graph = hmm.build_graph(hyp, dictionary, scorer)
            fs = scorer.frame_scores(utt.features)
            path = hmm.viterbi(graph, utt.features, scorer, frame_scores=fs)
            again = hmm.path_loglik(graph, path.nodes, fs)
            if not math.isclose(path.loglik, again, rel_tol=1e-9,
                                abs_tol=1e-9):
                problems.append(f"{utt.id}: viterbi loglik {path.loglik!r} "
                                f"!= path_loglik {again!r}")
    for name, value in quality.items():
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{name}={value!r} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# One run


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, cases) -> dict[str, float]:
    """The per-layer metrics of a traced run (quality and failure share
    are added by the caller)."""
    table = tracer.layer_table()
    empty = {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for layer, kinds in _LAYER_COUNTS.items():
        row = table.get(layer, empty)
        for kind in kinds:
            key = f"{layer}.{kind}"
            out[key] = row[kind] if kind in row else tracer.counts[key]
    out["decoder.decode.self_s"] = sum(
        table.get(f"decoder.decode_{m}", empty)["self_s"]
        for m in ("isolated", "continuous"))
    train_frames = sum(sum(u.n_frames for u in c.train.utterances)
                       for c in cases)
    out["acoustic.frame_scores.frames_per_train_frame"] = (
        tracer.counts["acoustic.frame_scores.frames"] / train_frames)
    reports = [r for c in cases if c.result is not None
               for r in c.result.reports]
    out["pipeline.gmm_iters"] = sum(r.stage == "gmm" for r in reports)
    out["pipeline.mlp_iters"] = sum(r.stage == "mlp" for r in reports)
    out["trace.wall_s"], _, out["trace.remainder_s"] = tracer.wall_split()
    out["trace.spans"] = tracer.n_spans
    out["trace.overhead_s_est"] = tracer.n_spans * span_cost()
    return out


def run(name: str, seed: int, seconds: float, trace: bool,
        root: str) -> dict:
    """Run one workload; returns the full record (result line, metrics,
    manifest fields)."""
    workload = WORKLOADS[name]
    work_dir = os.path.join(root, ".bench_work", f"{name}-seed{seed}")
    tracer = Tracer() if trace else None
    try:
        cases = make_cases(workload, seed, work_dir)
        if tracer:
            tracer.install()
        setup_times, io_problems = load_all(cases)
        train_all(cases, workload, name, seed)
        decode_start = time.perf_counter()
        log = decode_window(cases, workload.mode, decode_start + seconds)
        decode_s = time.perf_counter() - decode_start
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    trained = [c for c in cases if c.result is not None]
    failures = [c.error for c in cases if c.error]
    if not trained:
        raise HarnessError("no corpus trained, nothing to decode: "
                           + "; ".join(failures))
    dict_exact, label_acc = label_quality(cases)
    quality = {"test_word_acc": word_accuracy(cases, log),
               "label_acc": label_acc, "dict_exact": dict_exact}
    problems = io_problems + gate(cases, log, quality)

    n_test = sum(c.test.n_utterances for c in cases)
    failed_decodes = sum(c.test.n_utterances for c in cases
                         if c.result is None) + log.failed
    attempted = len(cases) + n_test
    failed = len(failures) + failed_decodes
    trained_frames = sum(sum(u.n_frames for u in c.train.utterances)
                         for c in trained)
    lat_ms = np.array(list(log.best_s.values())) * 1e3
    e2e = {
        "setup_s": statistics.median(setup_times),
        # failed attempts count in the time, not in the frames
        "train_frames_per_s": trained_frames / sum(c.train_s for c in cases),
        "decode_frames_per_s": (sum(log.frames.values())
                                / sum(log.best_s.values())),
        "decode_ms_p50": float(np.percentile(lat_ms, 50)),
        "decode_ms_p90": float(np.percentile(lat_ms, 90)),
        "test_word_acc": quality["test_word_acc"],
        "label_acc": quality["label_acc"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    # printed with every run.  fail_share is 0 where nothing fails and
    # dict_exact swings with the seed, so neither can be a bounded
    # end-to-end metric; both are per-layer metrics of the traced run.
    info = {"test_wer": 1.0 - quality["test_word_acc"],
            "dict_exact": dict_exact, "fail_share": failed / attempted}
    layers = None
    if tracer:
        layers = layer_metrics(tracer, cases)
        layers["dict_exact"] = info["dict_exact"]
        layers["fail_share"] = info["fail_share"]
        problems += [f"spans: {p}" for p in tracer.problems()]
    shown = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    line = {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {} if problems else {
                k: {"value": shown[k], "unit": units[k][0]} for k in units}}
    return {
        "line": line, "problems": problems, "failures": failures,
        "end_to_end": e2e, "per_layer": layers, "info": info,
        "layer_table": tracer.layer_table() if tracer else None,
        "tracer": tracer,
        "samples": {
            "setup_repeats": len(setup_times),
            "language_seed": workload.language_seed,
            "train_seeds": [c.train_seed for c in cases],
            "test_seeds": [c.test_seed for c in cases],
            "corpora_trained": len(trained),
            "train_frames_trained": trained_frames,
            "train_s": [c.train_s for c in cases],
            "test_utterances": n_test,
            "decode_latencies": len(lat_ms),
            "decodes": log.decodes,
            "decode_passes": log.passes,
            "decode_window_s": decode_s,
            "gate_sample_per_corpus": GATE_SAMPLE,
        },
    }


# ---------------------------------------------------------------------------
# Manifest and result files


def git_sha(root: str) -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" in a
    checkout that is not a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def manifest(record: dict, name: str, seed: int, seconds: float,
             trace: bool, root: str, previous: dict | None) -> dict:
    import scipy

    out = {
        "workload": name, "why": WORKLOADS[name].why, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "pipeline_threads": 1,
        "samples": record["samples"],
        "failures": record["failures"],
    }
    if trace:
        tracer = record["tracer"]
        out["tracing_overhead"] = {
            "spans": tracer.n_spans,
            "estimated_s": record["per_layer"]["trace.overhead_s_est"]}
        if previous is not None:
            untraced = sum(previous["samples"]["train_s"])
            traced = sum(record["samples"]["train_s"])
            out["tracing_overhead"].update(
                untraced_train_s=untraced, traced_train_s=traced,
                measured_share=traced / untraced - 1.0)
    return out


def write_results(record: dict, name: str, seed: int, seconds: float,
                  trace: bool, root: str) -> str:
    """Write ``<tag>.json`` (result) and ``<tag>.manifest.json`` under
    ``.bench_results/``; a traced run also writes its raw spans."""
    out_dir = os.path.join(root, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    tag = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    previous = None
    if trace:
        try:
            with open(os.path.join(out_dir, f"{name}-seed{seed}-trace0.json"),
                      encoding="utf-8") as fh:
                previous = json.load(fh)
        except (OSError, ValueError):
            previous = None
    result = {k: record[k] for k in ("line", "problems", "failures",
                                     "end_to_end", "per_layer", "info",
                                     "layer_table", "samples")}
    with open(tag + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    with open(tag + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest(record, name, seed, seconds, trace, root,
                           previous), fh, indent=1)
    if trace:
        record["tracer"].save(tag + ".spans.npz")
    return tag


def render(record: dict, trace: bool) -> str:
    """Human-readable lines: every metric with its unit, then failures."""
    lines = []
    s = record["samples"]
    lines.append(f"# corpora {len(s['train_seeds'])} trained "
                 f"{s['corpora_trained']}, test utterances "
                 f"{s['test_utterances']}, decode latencies "
                 f"{s['decode_latencies']} (fastest of {s['decodes']} "
                 f"decodes in {s['decode_passes']} pass(es))")
    for key, value in record["end_to_end"].items():
        lines.append(f"{key}\t{value:.6g}\t{END_TO_END[key][0]}")
    for key, value in record["info"].items():
        if not (trace and key in PER_LAYER):
            lines.append(f"{key}\t{value:.6g}\tshare")
    if trace:
        for key, value in record["per_layer"].items():
            lines.append(f"{key}\t{value:.6g}\t{PER_LAYER[key][0]}")
    for failure in record["failures"]:
        lines.append(f"# training failed: {failure}")
    for problem in record["problems"]:
        lines.append(f"# GATE FAILED: {problem}")
    return "\n".join(lines)


def src_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sublex", "__init__.py")):
        raise HarnessError(f"no sublex sources under {src}; run from the "
                           "root of a sublex checkout")
    return src


def use_sources(root: str) -> None:
    src = src_dir(root)
    if src not in sys.path:
        sys.path.insert(0, src)
