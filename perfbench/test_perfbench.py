"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
harness.use_sources(ROOT)


def test_self_times_of_nested_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,9]; E is
    # top-level after A.
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    selfs = tracing.self_times(parents, starts, ends)
    np.testing.assert_allclose(selfs, [3.0, 2.0, 1.0, 4.0, 1.0])
    # self times add up to the top-level durations
    assert selfs.sum() == pytest.approx(11.0)


def test_span_problems_of_sound_and_broken_spans():
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    assert tracing.span_problems(parents, starts, ends, 0.0, 12.0) == []
    # C ends after its parent B
    broken = tracing.span_problems(parents, starts,
                                   [10.0, 4.0, 4.5, 9.0, 12.0], 0.0, 12.0)
    assert any("outside their parent" in p for p in broken)
    # D starts inside its sibling B
    broken = tracing.span_problems(parents, [0.0, 1.0, 2.0, 1.5, 11.0],
                                   [10.0, 4.0, 3.0, 9.5, 12.0], 0.0, 12.0)
    assert any("overlap" in p for p in broken)
    assert any("negative self time" in p for p in broken)
    # the top-level spans cover more than the traced wall
    broken = tracing.span_problems(parents, starts, ends, 0.0, 10.5)
    assert any("outside their parent" in p for p in broken)
    assert any("remainder" in p for p in broken)


def test_tracer_patches_rebound_names_and_restores_them():
    from sublex import decoder, hmm, pronunciation

    originals = (decoder.viterbi, pronunciation.force_align,
                 pronunciation.free_loop_decode, hmm.em_reestimate)
    with tracing.Tracer():
        assert decoder.viterbi is hmm.viterbi
        assert decoder.viterbi is not originals[0]
        assert pronunciation.force_align is hmm.force_align
        assert pronunciation.free_loop_decode is hmm.free_loop_decode
        assert hmm.em_reestimate is not originals[3]
    assert (decoder.viterbi, pronunciation.force_align,
            pronunciation.free_loop_decode, hmm.em_reestimate) == originals


def test_tracer_records_calls_and_failures():
    from sublex import acoustic, corpus
    from sublex.errors import DataError

    rng = np.random.default_rng(0)
    frames = rng.normal(size=(30, 2))
    with tracing.Tracer() as tr:
        acoustic.lbg_cluster(frames, 2, 0)
        with pytest.raises(DataError):
            corpus.check_features(np.zeros((0, 2)))
    table = tr.layer_table()
    assert table["acoustic.lbg_cluster"]["calls"] == 1
    assert table["corpus.check_features"]["failed"] == 1
    for row in table.values():
        assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-12
    assert tr.problems() == []
    wall, self_total, remainder = tr.wall_split()
    assert 0.0 <= self_total <= wall
    assert self_total + remainder == pytest.approx(wall, rel=1e-9)


@pytest.mark.parametrize("language_seed", [None, 0])
def test_corpus_k_is_the_generator_corpus_at_seed_plus_k(tmp_path,
                                                         language_seed):
    from dataclasses import replace

    from sublex import corpus

    workload = replace(harness.WORKLOADS["smoke"], n_corpora=2,
                       language_seed=language_seed)
    cases = harness.make_cases(workload, 7, str(tmp_path))
    spec = corpus.SynthSpec(**workload.spec)
    language = None
    if language_seed is not None:
        _, language = corpus.synth_corpus(spec, language_seed)
    for k, case in enumerate(cases):
        assert case.train_seed == 7 + k
        expected, truth = corpus.synth_corpus(spec, 7 + k, truth=language)
        assert harness._same_corpus(case.train, expected)
        assert case.truth.true_dictionary == truth.true_dictionary
        assert case.test_seed not in (7, 8)


def test_metric_and_workload_names():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    names = (list(harness.END_TO_END) + list(harness.PER_LAYER)
             + list(harness.WORKLOADS))
    assert len(names) == len(set(names))
    for name in names:
        assert pattern.match(name), name
    for unit, better in list(harness.END_TO_END.values()) + list(
            harness.PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        assert better in ("lower", "higher")


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(
        harness.BENCH_WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for key, spec in (("end_to_end", harness.END_TO_END),
                      ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in bench[key]} \
            == spec
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_workload(tmp_path, trace):
    record = harness.run("smoke", seed=3, seconds=0.2, trace=trace,
                         root=str(tmp_path))
    line = record["line"]
    assert line["correct"], record["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(line["metrics"]) == list(expected)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert np.isfinite(metric["value"])
    if trace:
        assert line["metrics"]["hmm.viterbi.calls"]["value"] > 0
        assert line["metrics"]["corpus.load_corpus.self_s"]["value"] > 0
    assert not os.path.exists(tmp_path / ".bench_work" / "smoke-seed3")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
