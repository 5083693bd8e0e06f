import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import tracing
from conftest import BENCH, ROOT
from tracing import Span


def _tree_selfs(spans):
    selfs = tracing.self_times(spans)
    return selfs, sum(selfs.values())


def test_self_times_of_a_sequential_tree_sum_to_the_root():
    spans = [
        Span(1, None, "cli.main", 0.0, 10.0, {}),
        Span(2, 1, "a", 1.0, 4.0, {}),
        Span(3, 2, "b", 2.0, 3.0, {}),
        Span(4, 1, "c", 5.0, 9.5, {}),
        Span(5, 4, "b", 6.0, 7.0, {}),
        Span(6, 4, "b", 7.0, 8.0, {}),
    ]
    selfs, total = _tree_selfs(spans)
    assert selfs == {1: 2.5, 2: 2.0, 3: 1.0, 4: 2.5, 5: 1.0, 6: 1.0}
    assert total <= 10.0 + 1e-12


def test_overlapping_children_are_counted_once_in_the_parent():
    # two pool threads under one ordered_map span
    spans = [
        Span(1, None, "parallel.ordered_map", 0.0, 4.0, {}),
        Span(2, 1, "x", 0.5, 3.0, {}),
        Span(3, 1, "x", 1.0, 3.5, {}),
        Span(4, 1, "x", 3.8, 5.0, {}),  # clipped to the parent's end
    ]
    selfs, _ = _tree_selfs(spans)
    assert selfs[1] == pytest.approx(4.0 - 3.0 - 0.2)
    assert all(v >= 0 for v in selfs.values())


def _sample_argv(tmp_path, n=200):
    return ["sample", "--model", inputs.UNIFORM_MODEL, "-n", str(n), "--seed", "3",
            "--out", str(tmp_path / "draws.csv"), "--quiet"]


def test_traced_command_self_times_fit_inside_the_root(tmp_path):
    from jdan import cli

    with tracing.Tracer() as tracer:
        assert cli.main(_sample_argv(tmp_path)) == 0
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    selfs, total = _tree_selfs(tracer.spans)
    assert total <= roots[0].end - roots[0].start + 1e-9
    assert all(v >= 0 for v in selfs.values())
    m = tracing.layer_metrics(tracer.spans)
    assert m["copula.sample.calls"] == 1 and m["marginal.inverse_cdf.calls"] == 2
    assert m["hypernet.materialize.calls"] == 1  # the unconditional load
    assert m["autodiff.backward.calls"] == 0
    assert 0.4 < m["copula.sample.accept_ratio"] <= 1.0
    assert m["marginal.inverse_cdf.cdf_evals_per_call"] > 10


def test_one_tracer_across_commands_keeps_ids_unique(tmp_path):
    from jdan import cli

    import workload

    tracer = tracing.Tracer()
    cmd = workload.Command("t", _sample_argv(tmp_path, 50), [], 50)
    for _ in range(2):
        assert workload.run_command(cli, cmd, tracer)[1] == 0
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    assert tracing.layer_metrics(tracer.spans)["copula.sample.calls"] == 2


def test_uninstall_restores_every_call_site(tmp_path):
    import jdan
    from jdan import cli, copula, marginal, metrics

    before = (marginal.normalized_cdf, copula.normalized_cdf, metrics.normalized_cdf,
              cli.normalized_cdf, cli.main, jdan.sample, copula.copula_density)
    tracer = tracing.Tracer()
    tracer.install()
    assert copula.normalized_cdf is not before[1]
    assert cli.normalized_cdf is copula.normalized_cdf is marginal.normalized_cdf
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    after = (marginal.normalized_cdf, copula.normalized_cdf, metrics.normalized_cdf,
             cli.normalized_cdf, cli.main, jdan.sample, copula.copula_density)
    assert all(a is b for a, b in zip(before, after))


def test_pool_threads_keep_their_parent(monkeypatch):
    # more workers than cores and a short switch interval, so pool threads interleave
    from jdan import model_io
    from jdan.metrics import log_score

    monkeypatch.setenv("JDAN_THREADS", "8")
    fc, _ = model_io.load_model(inputs.CONDITIONAL_MODEL)
    x, y = inputs.conditional_rows(2, "score", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with tracing.Tracer() as tracer:
            log_score(fc, y, x[:, None])
    finally:
        sys.setswitchinterval(interval)
    maps = {s.id for s in tracer.spans if s.name == "parallel.ordered_map"}
    pdfs = [s for s in tracer.spans if s.name == "copula.joint_pdf"]
    mats = [s for s in tracer.spans if s.name == "hypernet.materialize"]
    assert len(maps) == 2 and len(pdfs) == 64 and len(mats) == 64
    assert all(s.parent in maps for s in pdfs + mats)
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    # run.py adds setup_s to what workload.py measures
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "cmd1_items_per_s", "cmd2_items_per_s"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
