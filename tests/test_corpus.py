import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sublex.corpus import (Corpus, SynthSpec, Utterance, _max_weight_assignment,
                           best_unit_mapping,
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

    @pytest.mark.parametrize("text, message", [
        ("1.0 2.0\n# 3.0 x\n\n3.0 x\n4.0 y\n",
         r"f\.txt:4: bad float: could not convert string to float: 'x'"),
        ("1.0 2.0\n3.0\n", r"ragged rows \(widths \[1, 2\]\)"),
        ("# header\n\n  \n", "no frames"),
        ("", "no frames")])
    def test_malformed_feature_file(self, tmp_path, text, message):
        path = tmp_path / "f.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_feature_file(path)

    def test_feature_values_are_float_of_each_token(self, tmp_path):
        """Bitwise, whatever the number format, spacing, comment and
        blank lines, and line endings; the array owns its data, so no
        second array object is kept per file."""
        rng = np.random.default_rng(0)
        formats = ["{!r}", "{:.17g}", "{:.3e}", "{:.5f}", "{:+.2f}", "{:.0f}"]
        path = tmp_path / "f.txt"
        for k in range(30):
            T = int(rng.integers(1, 6))
            values = rng.normal(size=(T, 3)) * 10.0 ** rng.integers(-8, 9, 3)
            tokens = [[formats[i].format(x) for i, x in
                       zip(rng.integers(0, len(formats), 3), row.tolist())]
                      for row in values]
            lines = []
            for toks in tokens:
                if rng.random() < 0.3:
                    lines.append(rng.choice(["", "   ", "# x", "  #1 2 3"]))
                lines.append(" " * int(rng.integers(0, 3))
                             + rng.choice([" ", "\t", "  "]).join(toks))
            newline = "\r\n" if k % 3 == 0 else "\n"
            path.write_bytes(newline.join(lines).encode())
            expect = np.array([[float(t) for t in toks] for toks in tokens])
            got = read_feature_file(path)
            assert got.tobytes() == expect.tobytes()
            assert got.shape == expect.shape and got.flags.owndata

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

    @pytest.mark.parametrize("words_per_utterance", [1, 3])
    def test_words_are_plain_str(self, words_per_utterance):
        spec = SynthSpec(n_words=5, n_units=4, utts_per_word=4,
                         words_per_utterance=words_per_utterance)
        corpus, truth = synth_corpus(spec, seed=2)
        test, _ = synth_corpus(spec, seed=3, truth=truth)
        for c in (corpus, test):
            assert all(type(w) is str for u in c.utterances
                       for w in u.transcript)
            assert all(type(w) is str for w in c.vocabulary)

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

    def test_sequence_count_mismatch(self):
        # zip would drop the unpaired sequence
        with pytest.raises(DataError, match="2 learned label sequences"):
            best_unit_mapping([np.zeros(3, int)] * 2, [np.zeros(3, int)],
                              2, 2)

    def test_negative_label(self):
        # np.add.at would count -1 in the last row
        with pytest.raises(DataError, match="outside range"):
            best_unit_mapping([np.array([0, -1])], [np.array([0, 1])], 2, 2)

    @pytest.mark.parametrize("side", ["learned", "true"])
    def test_label_too_large(self, side):
        good, bad = np.array([0, 1]), np.array([0, 2])
        learned, true = (bad, good) if side == "learned" else (good, bad)
        with pytest.raises(DataError, match=f"{side} label outside range"):
            best_unit_mapping([learned], [true], 2, 2)

    def test_non_integer_labels(self):
        with pytest.raises(DataError, match="integers"):
            best_unit_mapping([np.array([0.0, 1.0])], [np.array([0, 1])],
                              2, 2)

    def test_both_orientations(self):
        # 3 learned units, 2 true ones, and the transpose: two pairs each
        labels = [np.array([0, 0, 1, 2, 2, 2])]
        truth = [np.array([1, 1, 0, 0, 0, 1])]
        assert best_unit_mapping(labels, truth, 3, 2) == {0: 1, 2: 0}
        assert best_unit_mapping(truth, labels, 2, 3) == {1: 0, 0: 2}

    def test_unused_units_still_mapped(self):
        mapping = best_unit_mapping([np.array([3, 3])], [np.array([1, 1])],
                                    4, 4)
        assert mapping[3] == 1
        assert sorted(mapping) == [0, 1, 2, 3]
        assert sorted(mapping.values()) == [0, 1, 2, 3]


def _total(weights, mapping):
    return sum(int(weights[r, c]) for r, c in mapping.items())


def _check_injective(weights, mapping):
    """min(R, C) pairs inside the matrix, no column twice."""
    assert len(mapping) == min(weights.shape)
    assert len(set(mapping.values())) == len(mapping)
    assert all(0 <= r < weights.shape[0] for r in mapping)
    assert all(0 <= c < weights.shape[1] for c in mapping.values())


def _brute_force(weights):
    R, C = weights.shape
    if R <= C:
        return max(sum(int(weights[r, c]) for r, c in enumerate(cols))
                   for cols in itertools.permutations(range(C), R))
    return _brute_force(weights.T)


def _random_weights(rng, max_side):
    R, C = rng.integers(1, max_side + 1, size=2)
    high = int(rng.choice([1, 2, 3, 10, 1000]))    # small highs tie a lot
    weights = rng.integers(0, high + 1, size=(R, C))
    if rng.random() < 0.3:
        weights[rng.integers(R)] = 0
    if rng.random() < 0.3:
        weights[:, rng.integers(C)] = 0
    return weights


class TestMaxWeightAssignment:
    def test_equals_scipy_on_random_matrices(self):
        # the same total as SciPy, and by the shared tie rule the same pairs
        rng = np.random.default_rng(0)
        for _ in range(1500):
            weights = _random_weights(rng, 16)
            mapping = _max_weight_assignment(weights)
            _check_injective(weights, mapping)
            rows, cols = linear_sum_assignment(weights, maximize=True)
            assert _total(weights, mapping) == int(weights[rows, cols].sum())
            assert mapping == dict(zip(rows.tolist(), cols.tolist()))

    def test_equals_brute_force_on_small_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            weights = _random_weights(rng, 6)
            mapping = _max_weight_assignment(weights)
            _check_injective(weights, mapping)
            assert _total(weights, mapping) == _brute_force(weights)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 3),
                                       (3, 6), (6, 3)])
    def test_ties_map_row_r_to_column_r(self, shape):
        for weights in (np.zeros(shape, int), np.full(shape, 7)):
            assert _max_weight_assignment(weights) == \
                {r: r for r in range(min(shape))}

    def test_single_row_and_column(self):
        # two maxima: the scan runs from column 3 down, and the last free
        # one it meets is column 1
        row = np.array([[3, 9, 1, 9]])
        assert _max_weight_assignment(row) == {0: 1}
        assert _max_weight_assignment(row.T) == {1: 0}

    def test_transpose_gives_transposed_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            weights = rng.integers(0, 1000, size=rng.integers(1, 9, size=2))
            mapping = _max_weight_assignment(weights)
            flipped = _max_weight_assignment(weights.T)
            assert _total(weights, mapping) == _total(weights.T, flipped)
            # distinct weights: the maximum is unique with high probability
            if len(np.unique(weights)) == weights.size:
                assert mapping == {c: r for r, c in flipped.items()}

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        weights = rng.integers(0, 3, size=(8, 8))
        first = _max_weight_assignment(weights)
        assert all(_max_weight_assignment(weights.copy()) == first
                   for _ in range(5))

    def test_exact_on_large_counts(self):
        # in float64 every entry rounds to 2^53, and the tie rule would
        # pick the diagonal; in int64 the anti-diagonal is larger by 2
        big = 2 ** 53
        weights = np.array([[big, big + 1], [big + 1, big]])
        assert _max_weight_assignment(weights) == {0: 1, 1: 0}
