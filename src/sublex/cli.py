"""Command-line entry points.

Subcommands: synth, init, train-gmm, train-mlp, update-dict, align,
decode, eval, report.  Global flags: --config (ini-style key=value file),
--seed, --threads, --out-dir, --verbose.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import acoustic, corpus as corpusmod, decoder, hmm, mlp as mlpmod, \
    pipeline, pronunciation
from .corpus import SynthSpec
from .errors import SublexError, UsageError

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


@dataclasses.dataclass(frozen=True)
class SynthCliConfig(SynthSpec):
    """Config-file keys understood by the synth subcommand: the
    generator's fields plus the size of the test set."""

    test_utts_per_word: int = 5


def build_parser() -> _Parser:
    parser = _Parser(prog="sublex", description=__doc__)
    parser.add_argument("--config", help="ini-style key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out-dir", default=".",
                        help="directory for all written artifacts")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--words", type=int, default=None)
    p.add_argument("--units", type=int, default=None)
    p.add_argument("--utts-per-word", type=int, default=None)
    p.add_argument("--test-utts-per-word", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--separation", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--words-per-utt", type=int, default=None)

    def corpus_args(p, trn_required=True):
        p.add_argument("--scp", required=True)
        p.add_argument("--trn", required=trn_required)

    p = sub.add_parser("init", help="LBG initialization plus first dictionary")
    corpus_args(p)

    p = sub.add_parser("train-gmm", help="run the GMM training loop")
    corpus_args(p)
    p.add_argument("--models", help="initial model file (else initialize)")
    p.add_argument("--dict", dest="dict_path")

    p = sub.add_parser("train-mlp", help="run the network training loop")
    corpus_args(p)
    p.add_argument("--models", required=True)
    p.add_argument("--dict", dest="dict_path", required=True)

    p = sub.add_parser("update-dict", help="one dictionary re-estimation")
    corpus_args(p)
    p.add_argument("--models", required=True)
    p.add_argument("--mlp", help="network checkpoint for hybrid scoring")
    p.add_argument("--dict", dest="dict_path", required=True)

    p = sub.add_parser("align", help="forced alignment of a corpus")
    corpus_args(p)
    p.add_argument("--models", required=True)
    p.add_argument("--mlp")
    p.add_argument("--dict", dest="dict_path", required=True)

    for name in ("decode", "eval"):
        p = sub.add_parser(name, help=f"{name} a corpus")
        corpus_args(p, trn_required=(name == "eval"))
        p.add_argument("--models", required=True)
        p.add_argument("--mlp")
        p.add_argument("--dict", dest="dict_path", required=True)
        p.add_argument("--lm", help="ARPA bigram file")
        p.add_argument("--mode", choices=("isolated", "continuous"),
                       default=None, help="default: the config's eval_mode")
        p.add_argument("--lm-weight", type=float, default=None)
        p.add_argument("--wip", type=float, default=None,
                       help="word insertion penalty")

    p = sub.add_parser("report", help="summarize iteration report CSVs")
    p.add_argument("csvs", nargs="+")
    return parser


def _pipeline_cfg(args, **overrides) -> pipeline.PipelineConfig:
    overrides.update(seed=args.seed, threads=args.threads)
    return pipeline.parse_config_file(args.config, overrides=overrides)


def _load_scorer(args):
    models = acoustic.read_model_set(args.models)
    if getattr(args, "mlp", None):
        net, priors = mlpmod.load_mlp(args.mlp)
        return mlpmod.PosteriorScorer(net, priors, models.stay_logprob,
                                      models.exit_logprob), models
    return models, models


def _out(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_synth(args) -> int:
    overrides = {
        "n_words": args.words, "n_units": args.units,
        "utts_per_word": args.utts_per_word,
        "test_utts_per_word": args.test_utts_per_word,
        "noise_std": args.noise, "separation": args.separation,
        "dim": args.dim, "words_per_utterance": args.words_per_utt,
    }
    cfg = pipeline.parse_config_file(args.config, cls=SynthCliConfig,
                                     overrides=overrides)
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise UsageError("seed must be >= 0")
    train, truth = corpusmod.synth_corpus(cfg, seed)
    test_spec = dataclasses.replace(cfg, utts_per_word=cfg.test_utts_per_word)
    test, _ = corpusmod.synth_corpus(test_spec, seed + 1, truth=truth,
                                     id_prefix="t")
    corpusmod.write_corpus(train, args.out_dir, "train")
    corpusmod.write_corpus(test, args.out_dir, "test")
    corpusmod.write_ground_truth(truth, _out(args, "ground_truth.txt"))
    print(f"wrote train ({train.n_utterances} utts) and test "
          f"({test.n_utterances} utts) under {args.out_dir}")
    return 0


def cmd_init(args) -> int:
    cfg = _pipeline_cfg(args)
    corpus = corpusmod.load_corpus(args.scp, args.trn)
    train, _ = pipeline.split_dev(corpus, cfg.dev_fraction, cfg.seed + 17)
    models, dictionary = pipeline.initialize(train, cfg)
    acoustic.write_model_set(models, _out(args, "models_init.txt"))
    hmm.write_dictionary(dictionary, _out(args, "dict_init.txt"))
    print(f"initialized {models.n_units} units, "
          f"{len(dictionary.entries)} dictionary entries")
    return 0


def cmd_train_gmm(args) -> int:
    cfg = _pipeline_cfg(args)
    corpus = corpusmod.load_corpus(args.scp, args.trn)
    train, dev = pipeline.split_dev(corpus, cfg.dev_fraction, cfg.seed + 17)
    pipeline.check_eval_mode(train, dev, cfg)
    if args.models and args.dict_path:
        models = acoustic.read_model_set(args.models)
        dictionary = hmm.read_dictionary(args.dict_path)
    else:
        models, dictionary = pipeline.initialize(train, cfg)
    pron_rows: list[str] = []
    result = pipeline.run_gmm_stage(train, models, dictionary, cfg, dev=dev,
                                    pron_report=pron_rows)
    acoustic.write_model_set(result.scorer, _out(args, "models_gmm.txt"))
    hmm.write_dictionary(result.dictionary, _out(args, "dict_gmm.txt"))
    pipeline.reports_to_csv(result.reports, _out(args, "reports_gmm.csv"))
    _write_lines(pron_rows, _out(args, "pron_report_gmm.tsv"))
    print(pipeline.stage_summary("gmm stage", result.reports))
    return 0


def cmd_train_mlp(args) -> int:
    cfg = _pipeline_cfg(args)
    corpus = corpusmod.load_corpus(args.scp, args.trn)
    train, dev = pipeline.split_dev(corpus, cfg.dev_fraction, cfg.seed + 17)
    models = acoustic.read_model_set(args.models)
    dictionary = hmm.read_dictionary(args.dict_path)
    pron_rows: list[str] = []
    result = pipeline.run_mlp_stage(train, models, dictionary, cfg, dev=dev,
                                    pron_report=pron_rows)
    scorer = result.scorer
    mlpmod.save_mlp(scorer.model, scorer.priors, _out(args, "mlp.ckpt"))
    updated = dataclasses.replace(models, stay_logprob=scorer.stay_logprob,
                                  exit_logprob=scorer.exit_logprob)
    acoustic.write_model_set(updated, _out(args, "models_mlp.txt"))
    hmm.write_dictionary(result.dictionary, _out(args, "dict_mlp.txt"))
    pipeline.reports_to_csv(result.reports, _out(args, "reports_mlp.csv"))
    if result.trace:
        mlpmod.write_loss_trace(result.trace, _out(args, "mlp_trace.csv"))
    _write_lines(pron_rows, _out(args, "pron_report_mlp.tsv"))
    status = "DIVERGED, snapshot kept" if result.diverged else "ok"
    print(f"{pipeline.stage_summary('mlp stage', result.reports)} "
          f"({status})")
    return 0


def cmd_update_dict(args) -> int:
    cfg = _pipeline_cfg(args)
    corpus = corpusmod.load_corpus(args.scp, args.trn)
    scorer, _ = _load_scorer(args)
    dictionary = hmm.read_dictionary(args.dict_path)
    rows: list[str] = []
    new_dict = pronunciation.update_dictionary(
        corpus, scorer, dictionary, cfg.min_examples, cfg.max_units,
        report=rows, threads=cfg.threads)
    hmm.write_dictionary(new_dict, _out(args, "dict_updated.txt"))
    _write_lines(rows, _out(args, "pron_report.tsv"))
    print(f"updated dictionary: {new_dict.changes_since(dictionary)} of "
          f"{len(new_dict.entries)} entries changed")
    return 0


def cmd_align(args) -> int:
    corpus = corpusmod.load_corpus(args.scp, args.trn)
    scorer, _ = _load_scorer(args)
    dictionary = hmm.read_dictionary(args.dict_path)
    out_path = _out(args, "alignments.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        for utt in corpus.utterances:
            labels, _, _ = hmm.force_align(utt, dictionary, scorer)
            fh.write(f"{utt.id}\t{' '.join(f'a{u}' for u in labels)}\n")
    print(f"wrote {out_path}")
    return 0


def cmd_decode(args, score_refs: bool) -> int:
    cfg = _pipeline_cfg(args, eval_mode=args.mode, lm_weight=args.lm_weight,
                        word_insertion_penalty=args.wip)
    scorer, _ = _load_scorer(args)
    dictionary = hmm.read_dictionary(args.dict_path)
    lm = decoder.load_arpa_bigram(args.lm) if args.lm else None
    if score_refs:
        corpus = corpusmod.load_corpus(args.scp, args.trn)
        report = pipeline.evaluate(
            corpus, dictionary, scorer, lm=lm, mode=cfg.eval_mode,
            lm_weight=cfg.lm_weight,
            word_insertion_penalty=cfg.word_insertion_penalty)
        pipeline.write_eval_report(report, _out(args, "eval_report.txt"))
        hyps = [(r.utt_id, r.hyp) for r in report.rows]
        s, d, i = report.totals
        print(f"WER {report.wer:.4f} (S={s} D={d} I={i} "
              f"ref={report.n_ref_words})")
    else:
        hyps = []
        for utt_id, feats in corpusmod.load_scp_entries(args.scp):
            if cfg.eval_mode == "isolated":
                word, _ = decoder.decode_isolated(feats, dictionary, scorer)
                hyps.append((utt_id, (word,)))
            else:
                res = decoder.decode_continuous(
                    feats, dictionary, scorer, lm=lm, lm_weight=cfg.lm_weight,
                    word_insertion_penalty=cfg.word_insertion_penalty)
                hyps.append((utt_id, res.words))
    with open(_out(args, "hyp.txt"), "w", encoding="utf-8") as fh:
        for utt_id, words in hyps:
            fh.write(f"{utt_id}\t{' '.join(words)}\n")
    return 0


def cmd_report(args) -> int:
    sets = {}
    for path in args.csvs:
        name = os.path.splitext(os.path.basename(path))[0]
        sets[name] = pipeline.read_reports_csv(path)
    summary = pipeline.render_summary(sets)
    with open(_out(args, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0


def _write_lines(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row + "\n")


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        handlers = {
            "synth": cmd_synth,
            "init": cmd_init,
            "train-gmm": cmd_train_gmm,
            "train-mlp": cmd_train_mlp,
            "update-dict": cmd_update_dict,
            "align": cmd_align,
            "report": cmd_report,
        }
        if args.command == "decode":
            return cmd_decode(args, score_refs=False)
        if args.command == "eval":
            return cmd_decode(args, score_refs=True)
        return handlers[args.command](args)
    except SublexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
