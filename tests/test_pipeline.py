import numpy as np
import pytest

from sublex.corpus import SynthSpec, synth_corpus
from sublex.errors import UsageError
from sublex.pipeline import PipelineConfig, parse_config_file, run_pipeline


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
        assert a.gmm_dictionary.entries == b.gmm_dictionary.entries
        assert a.dictionary.entries == b.dictionary.entries
        assert a.reports == b.reports
        for name in ("weights", "means", "variances", "stay_logprob",
                     "exit_logprob"):
            np.testing.assert_array_equal(getattr(a.gmm_models, name),
                                          getattr(b.gmm_models, name))
        for x, y in zip(a.mlp.model.weights + a.mlp.model.biases,
                        b.mlp.model.weights + b.mlp.model.biases):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.mlp.priors, b.mlp.priors)

    def test_result_shape(self):
        result = tiny_run(1)
        assert result.gmm_models.n_units == 3
        assert result.gmm_models.n_components in (1, 2)
        assert [r.stage for r in result.reports][-1] == "mlp"
        assert set(result.dictionary.entries) == {"W000", "W001", "W002",
                                                  "W003"}
        assert result.dictionary.max_unit() < 3


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

    def test_unknown_override_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_config_file(None, overrides={"no_such_key": 1})
