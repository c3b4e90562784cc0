import dataclasses
import logging

import numpy as np
import pytest

from sublex import hmm, mlp, pipeline, pronunciation
from sublex.corpus import Corpus, SynthSpec, Utterance, synth_corpus
from sublex.errors import TrainingDivergedError, UsageError
from sublex.pipeline import (IterationReport, PipelineConfig, _dev_frames,
                             initialize, parse_config_file, render_summary,
                             run_gmm_stage, run_mlp_stage, run_pipeline,
                             split_dev)
from sublex.pronunciation import estimate_pronunciations


def tiny_run(seed):
    corpus, _ = synth_corpus(SynthSpec(n_words=4, n_units=3,
                                       utts_per_word=6, pron_len=(2, 3)), 3)
    cfg = PipelineConfig(n_units=3, seed=seed, max_mixtures=2,
                         gmm_max_iters=2, mlp_max_iters=1, mlp_epochs=2,
                         mlp_hidden=(8,), mlp_context=1)
    return run_pipeline(corpus, cfg)


class TestRunPipeline:
    def test_repeated_runs_are_identical(self):
        a, b = tiny_run(0), tiny_run(0)
        assert a.gmm.dictionary.entries == b.gmm.dictionary.entries
        assert a.dictionary.entries == b.dictionary.entries
        assert a.reports == b.reports
        for name in ("weights", "means", "variances", "stay_logprob",
                     "exit_logprob"):
            np.testing.assert_array_equal(getattr(a.gmm.scorer, name),
                                          getattr(b.gmm.scorer, name))
        net_a, net_b = a.scorer().model, b.scorer().model
        for x, y in zip(net_a.weights + net_a.biases,
                        net_b.weights + net_b.biases):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.scorer().priors, b.scorer().priors)

    def test_result_shape(self):
        result = tiny_run(1)
        assert result.gmm.scorer.n_units == 3
        assert result.gmm.scorer.n_components in (1, 2)
        assert [r.stage for r in result.reports][-1] == "mlp"
        assert set(result.dictionary.entries) == {"W000", "W001", "W002",
                                                  "W003"}
        assert max(u for pron in result.dictionary.entries.values()
                   for u in pron) < 3


SPEC = SynthSpec(n_words=4, n_units=3, utts_per_word=6, pron_len=(2, 3))
CFG = PipelineConfig(n_units=3, seed=0, max_mixtures=4, gmm_max_iters=4,
                     mlp_max_iters=3, mlp_epochs=2, mlp_hidden=(8,),
                     mlp_context=1)


@pytest.fixture(scope="module")
def stage_inputs():
    """(train, dev, gmm stage result) of SPEC at generator seed 0, on
    which every GMM iteration decodes the dev set without error."""
    corpus, _ = synth_corpus(SPEC, 0)
    train, dev = split_dev(corpus, CFG.dev_fraction, CFG.seed + 17)
    models, dictionary = initialize(train, CFG)
    return train, dev, run_gmm_stage(train, models, dictionary, CFG, dev=dev)


class TestRefinementLoop:
    def test_dev_wer_ties_go_to_the_higher_loglik(self, stage_inputs):
        reports = stage_inputs[2].reports
        assert [r.dev_wer for r in reports] == [0.0, 0.0, 0.0]
        # patience counts only strict dev-WER gains
        assert len(reports) == CFG.patience + 1
        assert stage_inputs[2].scorer.n_components == CFG.max_mixtures

    def test_divergence_keeps_the_last_good_snapshot(self, stage_inputs,
                                                     monkeypatch):
        train, dev, gmm = stage_inputs
        nets = []

        def diverge_second(*args, **kwargs):
            if nets:
                raise TrainingDivergedError("injected")
            nets.append(real(*args, **kwargs)[0])
            return nets[0], [(0, 1.0, 1.0)]

        real = mlp.mlp_train
        monkeypatch.setattr(mlp, "mlp_train", diverge_second)
        result = run_mlp_stage(train, gmm.scorer, gmm.dictionary, CFG,
                               dev=dev)
        assert result.diverged
        assert [r.iteration for r in result.reports] == [1]
        assert result.scorer.model is nets[0]
        assert result.trace == ((0, 1.0, 1.0),)

    def test_divergence_in_the_first_iteration_raises(self, stage_inputs,
                                                      monkeypatch):
        train, dev, gmm = stage_inputs

        def diverge(*args, **kwargs):
            raise TrainingDivergedError("injected")

        monkeypatch.setattr(mlp, "mlp_train", diverge)
        with pytest.raises(TrainingDivergedError, match="injected"):
            run_mlp_stage(train, gmm.scorer, gmm.dictionary, CFG, dev=dev)

    def test_network_trains_with_a_dev_set(self, stage_inputs):
        train, dev, gmm = stage_inputs
        result = run_mlp_stage(train, gmm.scorer, gmm.dictionary, CFG,
                               dev=dev)
        assert len(result.trace) == CFG.mlp_epochs + 1
        assert np.isfinite([row[2] for row in result.trace]).all()

    def test_missing_dev_split_is_logged(self, caplog):
        corpus, _ = synth_corpus(dataclasses.replace(SPEC, utts_per_word=4),
                                 0)
        cfg = dataclasses.replace(CFG, gmm_max_iters=1)
        train, dev = split_dev(corpus, cfg.dev_fraction, cfg.seed + 17)
        assert dev is None
        models, dictionary = initialize(train, cfg)
        with caplog.at_level(logging.WARNING, logger="sublex.pipeline"):
            run_gmm_stage(train, models, dictionary, cfg, dev=dev)
        assert any("gmm stage" in r.getMessage()
                   and "dev split" in r.getMessage() for r in caplog.records)

    # 6 utterances per word leave a dev split, 4 leave none and the
    # training set is scored
    @pytest.mark.parametrize("utts_per_word", [6, 4])
    def test_isolated_mode_rejects_multi_word_transcripts(
            self, utts_per_word, monkeypatch):
        corpus, _ = synth_corpus(dataclasses.replace(
            SPEC, utts_per_word=utts_per_word, words_per_utterance=2), 0)

        def no_step(*args, **kwargs):
            raise AssertionError("a stage step ran")

        monkeypatch.setattr(pronunciation, "update_dictionary", no_step)
        # the check comes before the bootstrap
        monkeypatch.setattr(pipeline, "initialize", no_step)
        assert CFG.eval_mode == "isolated"
        with pytest.raises(UsageError, match="eval_mode"):
            run_pipeline(corpus, CFG)

    def test_summary_names_the_selected_iteration(self):
        reports = [IterationReport(1, "gmm", 1, -10.0, 0.0, 3, 8),
                   IterationReport(2, "gmm", 2, -5.0, 0.0, 1, 8),
                   IterationReport(3, "gmm", 4, -1.0, 0.1, 0, 8)]
        summary = render_summary({"run": reports})
        assert ("gmm: 3 iterations, selected iteration 2 (dev WER 0.0000)"
                in summary)


class TestDevFrames:
    def test_frames_of_the_force_aligned_dev_set(self, stage_inputs):
        _, dev, gmm = stage_inputs
        data = _dev_frames(dev, gmm.dictionary, gmm.scorer, CFG)
        labels = [hmm.force_align(utt, gmm.dictionary, gmm.scorer)[0]
                  for utt in dev.utterances]
        np.testing.assert_array_equal(data.labels, np.concatenate(labels))
        assert len(data.inputs) == sum(u.n_frames for u in dev.utterances)

    def test_no_path_utterances_are_left_out(self, stage_inputs):
        _, dev, gmm = stage_inputs
        d = gmm.dictionary
        word = dev.utterances[0].transcript[0]
        # one frame cannot cover a pronunciation of two or more units
        short = Utterance("short", dev.utterances[0].features[:1], (word,))
        assert len(d[word]) > 1
        kept = _dev_frames(Corpus((short, *dev.utterances)), d, gmm.scorer,
                           CFG)
        full = _dev_frames(dev, d, gmm.scorer, CFG)
        np.testing.assert_array_equal(kept.labels, full.labels)
        np.testing.assert_array_equal(kept.inputs, full.inputs)
        assert _dev_frames(Corpus((short,)), d, gmm.scorer, CFG) is None
        assert _dev_frames(None, d, gmm.scorer, CFG) is None


class TestInitialize:
    def test_bootstrap_is_not_held_to_max_units(self):
        # the continuous benchmark corpus at generator seed 1: uniform
        # slices of 3-word utterances over-segment one word to 13 units
        spec = SynthSpec(n_words=10, utts_per_word=10, n_units=8,
                         words_per_utterance=3, separation=4.0)
        corpus, _ = synth_corpus(spec, 1)
        cfg = PipelineConfig(n_units=8, seed=1, eval_mode="continuous")
        train, _ = split_dev(corpus, cfg.dev_fraction, cfg.seed + 17)
        _, dictionary = initialize(train, cfg)
        assert set(dictionary.entries) == set(corpus.vocabulary)
        assert max(map(len, dictionary.entries.values())) > cfg.max_units


    def test_bootstrap_equals_per_word_estimates(self):
        # one-word utterances of words with 1, 2, 3 and 6 examples
        rng = np.random.default_rng(4)
        counts = {"A": 1, "B": 2, "C": 3, "D": 6}
        corpus = Corpus(tuple(
            Utterance(f"{w}{i}", rng.normal(size=(int(rng.integers(3, 15)),
                                                  2)) * 3, (w,))
            for w, k in counts.items() for i in range(k)))
        models, dictionary = initialize(corpus, CFG)
        for word in counts:
            scores = [models.frame_scores(u.features)
                      for u in corpus.utterances if u.transcript == (word,)]
            pron, _ = estimate_pronunciations({word: scores},
                                              models)[word]
            assert dictionary[word] == pron


class TestParseConfigFile:
    def test_tuple_keys_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("# comment\n"
                        "n_units = 5\n"
                        "mlp_hidden = 32, 16  # two layers\n"
                        "mlp_l1 = 0.5\n"
                        "eval_mode = continuous\n"
                        "seed = 3\n")
        cfg = parse_config_file(path, overrides={"seed": 9, "threads": None})
        assert cfg.n_units == 5
        assert cfg.mlp_hidden == (32, 16)
        assert cfg.mlp_l1 == 0.5
        assert cfg.eval_mode == "continuous"
        assert cfg.seed == 9           # the override wins over the file
        assert cfg.threads == 1        # None keeps the default

    def test_no_file_gives_defaults(self):
        assert parse_config_file(None) == PipelineConfig()

    @pytest.mark.parametrize("text", ["no_such_key = 1\n", "n_units 5\n",
                                      "n_units = x\n", "mlp_hidden = 8 y\n",
                                      "train_tol = fast\n"])
    def test_bad_lines_are_usage_errors(self, tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(UsageError):
            parse_config_file(path)

    @pytest.mark.parametrize("key", ["gmm_max_iters", "mlp_max_iters"])
    def test_iteration_caps_must_be_positive(self, key):
        with pytest.raises(UsageError):
            PipelineConfig(**{key: 0})

    @pytest.mark.parametrize("key, value", [
        ("mlp_batch_size", 0), ("mlp_dropout", -0.1), ("mlp_dropout", 1.0),
        ("mlp_l1", -1e-6), ("mlp_l1", float("nan")), ("mlp_context", -1),
        ("max_units", 0), ("train_steps_per_iter", 0), ("mlp_hidden", (0,)),
        ("mlp_hidden", (8, 0)), ("max_mixtures", 0), ("mlp_epochs", 0),
        ("mlp_learning_rate", 0.0), ("mlp_learning_rate", -0.1),
        ("mlp_learning_rate", float("nan")), ("threads", 0),
        ("mlp_momentum", -0.1), ("mlp_momentum", 1.0),
        ("mlp_momentum", 1.5), ("patience", 0), ("min_examples", -1),
        ("split_epsilon", -0.2), ("lbg_epsilon", 0.0),
        ("lbg_epsilon", -0.2), ("train_tol", float("nan")),
        ("train_tol", -1e-6), ("lm_weight", float("nan")),
        ("lm_weight", float("inf")), ("word_insertion_penalty", float("nan")),
        ("word_insertion_penalty", float("-inf")), ("seed", -1)])
    def test_out_of_range_values_are_usage_errors(self, key, value):
        with pytest.raises(UsageError, match=key):
            PipelineConfig(**{key: value})

    def test_boundary_values_are_accepted(self):
        PipelineConfig(mlp_batch_size=1, mlp_dropout=0.0, mlp_l1=0.0,
                       mlp_context=0, max_units=1, train_steps_per_iter=1,
                       mlp_hidden=(1,), max_mixtures=1, mlp_epochs=1,
                       mlp_learning_rate=1e-300, threads=1, mlp_momentum=0.0,
                       patience=1, min_examples=0, seed=0, split_epsilon=0.0,
                       lbg_epsilon=1e-300, train_tol=0.0, lm_weight=-1e300,
                       word_insertion_penalty=1e300)

    def test_unknown_override_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config_file(None, overrides={"no_such_key": 1})
