import dataclasses

import numpy as np
import pytest

from sublex.corpus import (Corpus, SynthSpec, Utterance, best_unit_mapping,
                           load_corpus, load_scp_entries, read_feature_file,
                           read_ground_truth, synth_corpus, write_corpus,
                           write_feature_file, write_ground_truth)
from sublex.errors import DataError


def write_corpus_files(tmp_path, utts):
    """utts: list of (id, matrix, transcript string)."""
    scp = tmp_path / "c.scp"
    trn = tmp_path / "c.trn"
    with open(scp, "w") as sf, open(trn, "w") as tf:
        for utt_id, mat, text in utts:
            feat = tmp_path / f"{utt_id}.txt"
            write_feature_file(feat, np.asarray(mat, dtype=float))
            sf.write(f"{utt_id} {feat.name}\n")
            if text is not None:
                tf.write(f"{utt_id}\t{text}\n")
    return scp, trn


class TestLoadCorpus:
    def test_two_utterances_one_word(self, tmp_path):
        scp, trn = write_corpus_files(tmp_path, [
            ("u1", [[0.0, 1.0]], "cat"),
            ("u2", [[1.0, 2.0], [3.0, 4.0]], "cat"),
        ])
        corpus = load_corpus(scp, trn)
        assert corpus.n_utterances == 2
        assert corpus.vocabulary == ("CAT",)
        assert corpus.word_index["CAT"] == frozenset({0, 1})

    def test_missing_transcript_names_id(self, tmp_path):
        scp, trn = write_corpus_files(tmp_path, [
            ("u1", [[0.0]], "a"),
            ("u3", [[0.0]], None),
        ])
        with pytest.raises(DataError, match="u3"):
            load_corpus(scp, trn)

    def test_dimension_mismatch(self, tmp_path):
        scp, trn = write_corpus_files(tmp_path, [
            ("u1", np.zeros((2, 13)), "a"),
            ("u2", np.zeros((2, 39)), "b"),
        ])
        with pytest.raises(DataError, match="dimension"):
            load_corpus(scp, trn)

    def test_empty_transcript_rejected(self, tmp_path):
        scp, trn = write_corpus_files(tmp_path, [("u1", [[0.0]], "")])
        with pytest.raises(DataError):
            load_corpus(scp, trn)

    def test_unreadable_feature_file(self, tmp_path):
        scp = tmp_path / "c.scp"
        trn = tmp_path / "c.trn"
        scp.write_text("u1 missing.txt\n")
        trn.write_text("u1\thello\n")
        with pytest.raises(DataError, match="missing.txt"):
            load_corpus(scp, trn)

    def test_comments_and_case_folding(self, tmp_path):
        scp, trn = write_corpus_files(tmp_path, [("u1", [[1.0]], "Cat dog")])
        corpus = load_corpus(scp, trn)
        assert corpus.utterances[0].transcript == ("CAT", "DOG")

    def test_feature_file_round_trip(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(4, 3))
        path = tmp_path / "f.txt"
        write_feature_file(path, mat)
        again = read_feature_file(path)
        np.testing.assert_array_equal(mat, again)

    def test_feature_file_comment_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# header\n1.0 2.0\n# mid\n3.0 4.0\n")
        np.testing.assert_array_equal(read_feature_file(path),
                                      [[1.0, 2.0], [3.0, 4.0]])

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("1.0 nan\n")
        with pytest.raises(DataError):
            read_feature_file(path)

    def test_load_scp_entries(self, tmp_path):
        scp, _ = write_corpus_files(tmp_path, [("u1", [[1.0, 2.0]], "a")])
        entries = load_scp_entries(scp)
        assert entries[0][0] == "u1"
        np.testing.assert_array_equal(entries[0][1], [[1.0, 2.0]])

    def test_write_corpus_round_trip(self, tmp_path):
        utts = (Utterance("a", np.array([[1.0, 2.0]]), ("X",)),
                Utterance("b", np.array([[3.0, 4.0], [5.0, 6.0]]),
                          ("X", "Y")))
        corpus = Corpus(utts)
        scp, trn = write_corpus(corpus, tmp_path, "t")
        again = load_corpus(scp, trn)
        assert again.vocabulary == corpus.vocabulary
        for u1, u2 in zip(corpus.utterances, again.utterances):
            np.testing.assert_array_equal(u1.features, u2.features)
            assert u1.transcript == u2.transcript


class TestSynthCorpus:
    SPEC = SynthSpec(n_words=20, n_units=8, utts_per_word=20)

    def test_determinism(self):
        c1, t1 = synth_corpus(self.SPEC, seed=9)
        c2, t2 = synth_corpus(self.SPEC, seed=9)
        assert t1.true_dictionary == t2.true_dictionary
        np.testing.assert_array_equal(t1.true_means, t2.true_means)
        for u1, u2 in zip(c1.utterances, c2.utterances):
            assert u1.id == u2.id and u1.transcript == u2.transcript
            np.testing.assert_array_equal(u1.features, u2.features)

    def test_counts(self):
        corpus, truth = synth_corpus(self.SPEC, seed=3)
        assert corpus.n_utterances == 400
        assert len(corpus.vocabulary) == 20
        assert truth.true_unit_count == 8
        for w in corpus.vocabulary:
            assert len(corpus.word_index[w]) == 20

    def test_frames_follow_true_pronunciation(self):
        spec = SynthSpec(n_words=4, n_units=4, utts_per_word=6,
                         frames_per_unit=(3, 3))
        corpus, truth = synth_corpus(spec, seed=11)
        utt = corpus.utterances[0]
        word = utt.transcript[0]
        pron = truth.true_dictionary[word]
        assert utt.n_frames == 3 * len(pron)
        for k, unit in enumerate(pron):
            seg = utt.features[3 * k:3 * (k + 1)]
            dist = np.linalg.norm(seg.mean(axis=0) - truth.true_means[unit])
            assert dist < 3.0  # sample mean of 3 draws, sigma=1

    def test_mean_separation(self):
        _, truth = synth_corpus(self.SPEC, seed=21)
        m = truth.true_means
        d = np.linalg.norm(m[:, None] - m[None, :], axis=2)
        d[np.diag_indices(len(m))] = np.inf
        assert d.min() >= self.SPEC.separation * self.SPEC.noise_std

    def test_degenerate_spec_rejected(self):
        with pytest.raises(DataError):
            synth_corpus(dataclasses.replace(self.SPEC, n_words=0), seed=0)
        with pytest.raises(DataError):
            synth_corpus(dataclasses.replace(self.SPEC, n_units=1), seed=0)
        with pytest.raises(DataError):
            synth_corpus(dataclasses.replace(self.SPEC, separation=2.0),
                         seed=0)

    def test_shared_truth_held_out_set(self):
        corpus, truth = synth_corpus(self.SPEC, seed=5)
        spec2 = dataclasses.replace(self.SPEC, utts_per_word=3)
        test, t2 = synth_corpus(spec2, seed=6, truth=truth, id_prefix="t")
        assert t2.true_dictionary == truth.true_dictionary
        assert test.n_utterances == 60
        assert all(u.id.startswith("t") for u in test.utterances)

    def test_ground_truth_file_round_trip(self, tmp_path):
        _, truth = synth_corpus(self.SPEC, seed=5)
        path = tmp_path / "gt.txt"
        write_ground_truth(truth, path)
        again = read_ground_truth(path)
        assert again.true_unit_count == truth.true_unit_count
        assert again.true_dictionary == truth.true_dictionary
        assert again.seed == truth.seed

    def test_multi_word_utterances(self):
        spec = SynthSpec(n_words=6, n_units=4, utts_per_word=4,
                         words_per_utterance=2)
        corpus, _ = synth_corpus(spec, seed=2)
        assert all(len(u.transcript) == 2 for u in corpus.utterances)
        assert corpus.n_utterances == 12


class TestBestUnitMapping:
    def test_identity_on_permutation(self, rng):
        labels = [rng.integers(0, 4, size=20) for _ in range(5)]
        perm = np.array([2, 3, 1, 0])
        remapped = [perm[l] for l in labels]
        mapping = best_unit_mapping(remapped, labels, 4, 4)
        assert mapping == {2: 0, 3: 1, 1: 2, 0: 3}

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            best_unit_mapping([np.zeros(3, int)], [np.zeros(4, int)], 2, 2)
