import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import sublex
from sublex import cli, pipeline
from sublex.acoustic import write_model_set
from sublex.corpus import SynthSpec, synth_corpus, write_corpus, \
    write_ground_truth
from sublex.errors import DataError
from sublex.hmm import Dictionary, write_dictionary
from sublex.mlp import init_mlp, load_mlp, save_mlp
from sublex.pipeline import REPORT_HEADER, read_reports_csv, report_rank

from conftest import gaussian_model_set, random_model_set


@pytest.fixture
def files(tmp_path, rng):
    """A model set, a dictionary, a checkpoint and a one-utterance scp."""
    paths = {name: tmp_path / name
             for name in ("models.txt", "dict.txt", "mlp.ckpt", "u.scp")}
    write_model_set(random_model_set(rng, 3, 2), paths["models.txt"])
    write_dictionary(Dictionary({"A": (0, 1)}), paths["dict.txt"])
    save_mlp(init_mlp((2, 4, 3), 0, 0), np.full(3, 1 / 3),
             paths["mlp.ckpt"])
    (tmp_path / "u.txt").write_text("0 0\n1 1\n2 2\n")
    paths["u.scp"].write_text("u1 u.txt\n")
    return paths


def decode_args(tmp_path, files, **override):
    args = {"--scp": files["u.scp"], "--models": files["models.txt"],
            "--dict": files["dict.txt"]}
    args.update(override)
    argv = ["--out-dir", str(tmp_path), "decode"]
    for flag, value in args.items():
        argv += [flag, str(value)]
    return argv


class TestFileErrors:
    def test_decode_runs(self, tmp_path, files):
        assert cli.main(decode_args(tmp_path, files)) == 0
        assert (tmp_path / "hyp.txt").read_text() == "u1\tA\n"

    def test_missing_models_file(self, tmp_path, files, capsys):
        argv = decode_args(tmp_path, files, **{"--models": "nope.txt"})
        assert cli.main(argv) == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_missing_dictionary_file(self, tmp_path, files):
        argv = decode_args(tmp_path, files, **{"--dict": "nope.txt"})
        assert cli.main(argv) == 2

    def test_missing_scp_file(self, tmp_path, files):
        argv = decode_args(tmp_path, files, **{"--scp": "nope.scp"})
        assert cli.main(argv) == 2

    def test_truncated_checkpoint(self, tmp_path, files):
        blob = files["mlp.ckpt"].read_bytes()
        files["mlp.ckpt"].write_bytes(blob[:-5])
        argv = decode_args(tmp_path, files, **{"--mlp": files["mlp.ckpt"]})
        assert cli.main(argv) == 2


BINARY = b"\x80\xffsublex\x00\xfe\n"


def global_args(tmp_path, *argv):
    return ["--out-dir", str(tmp_path), *argv]


class TestMalformedFiles:
    """A file that is there but does not parse ends in an error exit
    code, never a traceback: data files exit 2, config values exit 1."""

    @pytest.mark.parametrize("flag", ["--models", "--dict", "--scp", "--lm"])
    def test_binary_decode_input(self, tmp_path, files, flag, capsys):
        bad = tmp_path / "binary.bin"
        bad.write_bytes(BINARY)
        assert cli.main(decode_args(tmp_path, files, **{flag: bad})) == 2
        assert "malformed" in capsys.readouterr().err

    def test_binary_feature_file(self, tmp_path, files):
        (tmp_path / "u.txt").write_bytes(BINARY)
        assert cli.main(decode_args(tmp_path, files)) == 2

    def test_binary_transcripts(self, tmp_path, files):
        bad = tmp_path / "u.trn"
        bad.write_bytes(BINARY)
        argv = decode_args(tmp_path, files, **{"--trn": bad})
        argv[argv.index("decode")] = "eval"
        assert cli.main(argv) == 2

    def test_non_numeric_model_field(self, tmp_path, files):
        text = files["models.txt"].read_text()
        files["models.txt"].write_text(text.replace("n_units 3",
                                                    "n_units abc"))
        assert cli.main(decode_args(tmp_path, files)) == 2

    def test_binary_config_file(self, tmp_path, files):
        bad = tmp_path / "cfg.ini"
        bad.write_bytes(BINARY)
        argv = ["--config", str(bad)] + decode_args(tmp_path, files)
        assert cli.main(argv) == 2

    def test_bad_config_value_is_usage_error(self, tmp_path, files, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("n_units = x\n")
        argv = ["--config", str(cfg)] + decode_args(tmp_path, files)
        assert cli.main(argv) == 1
        assert "n_units" in capsys.readouterr().err

    def test_out_of_range_config_value_is_usage_error(self, tmp_path, files,
                                                     capsys):
        cfg = tmp_path / "cfg.ini"
        for key, value in (("mlp_dropout", "1.5"), ("mlp_hidden", "8 0"),
                           ("lm_weight", "nan")):
            cfg.write_text(f"{key} = {value}\n")
            argv = ["--config", str(cfg)] + decode_args(tmp_path, files)
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("wip", ["nan", "inf"])
    def test_non_finite_insertion_penalty_is_usage_error(self, tmp_path, files,
                                                         wip, capsys):
        argv = decode_args(tmp_path, files) + ["--mode", "continuous",
                                               "--wip", wip]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "word_insertion_penalty" in err and "Traceback" not in err

    def test_binary_report(self, tmp_path):
        bad = tmp_path / "r.csv"
        bad.write_bytes(BINARY)
        assert cli.main(global_args(tmp_path, "report", str(bad))) == 2

    def test_short_report_row(self, tmp_path):
        bad = tmp_path / "r.csv"
        bad.write_text(REPORT_HEADER + "\n1,gmm,1\n")
        assert cli.main(global_args(tmp_path, "report", str(bad))) == 2

    def test_var_floor_of_another_dim(self, tmp_path, files, capsys):
        text = files["models.txt"].read_text().split("\n")
        text = [line if not line.startswith("var_floor ")
                else "var_floor 0.001 0.001 0.001" for line in text]
        files["models.txt"].write_text("\n".join(text))
        assert cli.main(decode_args(tmp_path, files)) == 2
        err = capsys.readouterr().err
        assert "var_floor" in err and "Traceback" not in err

    @pytest.mark.parametrize("sizes, n_priors, what", [
        ((2, 4, 4), 3, "priors"), ((2, 4, 5), 5, "network output")])
    def test_checkpoint_disagrees(self, tmp_path, files, capsys, sizes,
                                  n_priors, what):
        # 3 priors for 4 outputs; a 5-output network on a 3-unit model
        save_mlp(init_mlp(sizes, 0, 0), np.full(n_priors, 1 / n_priors),
                 files["mlp.ckpt"])
        argv = decode_args(tmp_path, files, **{"--mlp": files["mlp.ckpt"]})
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert what in err and "Traceback" not in err

    def test_negative_context_checkpoint(self, tmp_path, files, capsys):
        blob = files["mlp.ckpt"].read_bytes()
        files["mlp.ckpt"].write_bytes(
            blob.replace(b"context 0\n", b"context -1\n"))
        argv = decode_args(tmp_path, files, **{"--mlp": files["mlp.ckpt"]})
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "negative context" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["synth", "init"])
    def test_negative_seed_is_usage_error(self, tmp_path, files, capsys,
                                          command):
        argv = ["--seed", "-20", "--out-dir", str(tmp_path), command]
        if command == "init":
            argv += ["--scp", str(files["u.scp"]), "--trn", "u.trn"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (tmp_path / "ground_truth.txt").exists()


class TestDecodeMode:
    """Without ``--mode`` the decoders run in the config's eval_mode."""

    @pytest.fixture
    def two_words(self, tmp_path):
        write_model_set(gaussian_model_set([[0.0, 0.0], [10.0, 10.0]],
                                           np.ones((2, 2))),
                        tmp_path / "models.txt")
        write_dictionary(Dictionary({"A": (0,), "B": (1,)}),
                         tmp_path / "dict.txt")
        (tmp_path / "u.txt").write_text("0 0\n10 10\n10 10\n10 10\n")
        (tmp_path / "u.scp").write_text("u1 u.txt\n")
        (tmp_path / "u.trn").write_text("u1\tA B\n")
        return {"models.txt": tmp_path / "models.txt",
                "dict.txt": tmp_path / "dict.txt",
                "u.scp": tmp_path / "u.scp"}

    @pytest.mark.parametrize("config, flags, hyp", [
        ("", [], "B"),
        ("eval_mode = continuous\n", [], "A B"),
        ("eval_mode = continuous\n", ["--mode", "isolated"], "B"),
        ("", ["--mode", "continuous"], "A B")])
    @pytest.mark.parametrize("command", ["decode", "eval"])
    def test_mode_falls_back_to_config(self, tmp_path, two_words, config,
                                       flags, hyp, command):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] + decode_args(tmp_path, two_words)
        argv[argv.index("decode")] = command
        if command == "eval":
            argv += ["--trn", str(tmp_path / "u.trn")]
        assert cli.main(argv + flags) == 0
        assert (tmp_path / "hyp.txt").read_text() == f"u1\t{hyp}\n"


class TestCheckpointChecks:
    def test_round_trip(self, files):
        net, priors = load_mlp(files["mlp.ckpt"])
        assert net.sizes == (2, 4, 3)
        assert priors.tolist() == [1 / 3] * 3

    def test_trailing_bytes(self, files):
        with open(files["mlp.ckpt"], "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(DataError, match="trailing"):
            load_mlp(files["mlp.ckpt"])

    def test_prior_count_must_match_outputs(self, files):
        save_mlp(init_mlp((2, 4, 4), 0, 0), np.full(3, 1 / 3),
                 files["mlp.ckpt"])
        with pytest.raises(DataError, match="3 priors"):
            load_mlp(files["mlp.ckpt"])

    def test_missing_header_key(self, files):
        blob = files["mlp.ckpt"].read_bytes().replace(b"context 0\n", b"")
        files["mlp.ckpt"].write_bytes(blob)
        with pytest.raises(DataError, match="header"):
            load_mlp(files["mlp.ckpt"])


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSynth:
    # every key differs from its default
    KEYS = {"n_words": 3, "n_units": 3, "utts_per_word": 5,
            "test_utts_per_word": 2, "frames_per_unit": (2, 4),
            "noise_std": 0.5, "separation": 5.0, "dim": 3,
            "pron_len": (2, 3), "words_per_utterance": 2}

    def test_config_file_sets_every_key(self, tmp_path):
        assert set(self.KEYS) == {
            f.name for f in dataclasses.fields(cli.SynthCliConfig)}
        cfg = tmp_path / "synth.ini"
        cfg.write_text("".join(
            f"{k} = {' '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
            for k, v in self.KEYS.items()))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--seed", "4",
                         "--out-dir", str(out), "synth"]) == 0

        spec = SynthSpec(**{k: v for k, v in self.KEYS.items()
                            if k != "test_utts_per_word"})
        train, truth = synth_corpus(spec, 4)
        test, _ = synth_corpus(dataclasses.replace(spec, utts_per_word=2), 5,
                               truth=truth, id_prefix="t")
        ref = tmp_path / "ref"
        write_corpus(train, ref, "train")
        write_corpus(test, ref, "test")
        write_ground_truth(truth, ref / "ground_truth.txt")
        assert tree_bytes(out) == tree_bytes(ref)


class TestTrainGmm:
    SPEC = SynthSpec(n_words=4, n_units=3, utts_per_word=6, pron_len=(2, 3))

    def test_printout_names_the_selected_iteration(self, tmp_path, capsys):
        corpus, _ = synth_corpus(self.SPEC, 0)
        scp, trn = write_corpus(corpus, tmp_path, "train")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("n_units = 3\ngmm_max_iters = 3\n")
        assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                         "train-gmm", "--scp", scp, "--trn", trn]) == 0
        reports = read_reports_csv(tmp_path / "reports_gmm.csv")
        best = min(reports, key=report_rank)
        assert (f"gmm stage: {len(reports)} iterations, selected iteration "
                f"{best.iteration} (dev WER {best.dev_wer:.4f})"
                in capsys.readouterr().out)

    def test_isolated_mode_rejects_multi_word_transcripts(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        corpus, _ = synth_corpus(dataclasses.replace(
            self.SPEC, words_per_utterance=2), 0)
        scp, trn = write_corpus(corpus, tmp_path, "train")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("n_units = 3\n")

        def no_bootstrap(*args, **kwargs):
            raise AssertionError("the corpus was bootstrapped")

        monkeypatch.setattr(pipeline, "initialize", no_bootstrap)
        assert cli.main(["--config", str(cfg), "--out-dir", str(tmp_path),
                         "train-gmm", "--scp", scp, "--trn", trn]) == 1
        err = capsys.readouterr().err
        assert "eval_mode" in err and "Traceback" not in err
        assert not (tmp_path / "reports_gmm.csv").exists()


def test_import_loads_no_scipy_or_process_pool():
    # scipy and the process pool would add tens of MB and about half a
    # second to every process that imports the package
    code = ("import sys, sublex, sublex.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith("
            "('scipy', 'concurrent.futures.process', 'multiprocessing'))))")
    src = os.path.dirname(os.path.dirname(sublex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
