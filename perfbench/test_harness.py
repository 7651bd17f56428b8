"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

They run only the cheapest jobs of each kind, a few seconds in all.
"""

import json
import random
import sys

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))

ENV = run.child_env()


def _jobs_of(workload, check):
    return [j for j in workloads.job_list(workload, workloads.DEFAULT_SEED)
            if j["check"] == check]


def _a4_table_job():
    return next(j for j in _jobs_of("kl-table", "kl-table")
                if len(json.loads(checks._argv_value(
                    j["argv"], "--coxeter-matrix"))) == 4)


def _small_dss_job():
    return next(j for j in _jobs_of("sugawara-flow", "sugawara-check")
                if checks._argv_value(j["argv"], "--depth") == "4"
                and checks._argv_value(j["argv"], "--f0-bound") == "1")


def _with_report(out, text):
    return run.Outcome(text.encode(), out.stderr, out.code, out.wall,
                       out.rss_mb)


def _judge(workload, job, outs_by_sweep):
    sweeps = [(traced, (0.0, [out])) for traced, out in outs_by_sweep]
    return run.judge(workload, workloads.DEFAULT_SEED, [job], sweeps,
                     pin=False)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_job_list_is_a_function_of_the_seed(workload):
    same = workloads.job_list(workload, 7)
    assert same == workloads.job_list(workload, 7)
    assert same != workloads.job_list(workload, 8)
    assert len(same) == len(workloads.job_list(workload, 8))


def test_same_seed_gives_identical_digests():
    job = _small_dss_job()
    first, second = run.run_job(job, ENV), run.run_job(job, ENV)
    assert first.code == 0 and checks.check(job, first.stdout, None) == []
    assert run.digest(first.stdout) == run.digest(second.stdout)
    pinned = json.loads(run.DIGESTS.read_text())["sugawara-flow"]
    assert pinned[job["id"]] == run.digest(first.stdout)


def test_flipped_kl_coefficient_is_counted_failed():
    job = _a4_table_job()
    out = run.run_job(job, ENV)
    assert _judge("kl-table", job, [(False, out)])[:2] == (1, 0)
    report = json.loads(out.stdout)
    rows = report["table_tsv"].split("\n")
    # a row whose polynomial has a q-term keeps P(0) = 1 and the degree
    # bound after the flip, so only the pinned digest can catch it
    i = next(i for i, r in enumerate(rows[1:], 1)
             if r and r.split("\t")[2].count(",") >= 2)
    xs, ys, cs, conv = rows[i].split("\t")
    coeffs = cs.split(",")
    coeffs[-1] = str(int(coeffs[-1]) + 1)
    rows[i] = "\t".join([xs, ys, ",".join(coeffs), conv])
    report["table_tsv"] = "\n".join(rows)
    out = _with_report(out, json.dumps(report, sort_keys=True,
                                       separators=(",", ": "), indent=1) + "\n")
    attempted, failed, problems = _judge("kl-table", job, [(False, out)])
    assert (attempted, failed) == (1, 1)
    assert any("pinned" in p for p in problems[job["id"]])


def test_flipped_dss_tested_count_is_caught():
    job = _small_dss_job()
    out = run.run_job(job, ENV)
    report = json.loads(out.stdout)
    report["reports"][0]["tested"] += 1
    text = json.dumps(report)
    assert any("tested" in p for p in checks.check(job, text, None))
    out = _with_report(out, text)
    assert _judge("sugawara-flow", job, [(False, out)])[:2] == (1, 1)


def test_flipped_p0_is_caught_without_digests():
    report = {"pairs": 2, "table_tsv":
              "y\tw\tcoeffs\tconvention\ne\te\t0,1\tc\ne\t0\t0,2\tc\n"}
    job = {"argv": ["kl", "--coxeter-matrix", "[[1,3],[3,1]]"]}
    problems = checks.check(dict(job, check="kl-table"), json.dumps(report),
                            random.Random(0))
    assert any("P(0)" in p for p in problems)


def test_traced_run_executes_the_same_jobs(tmp_path):
    jobs = [_a4_table_job(), _small_dss_job()]
    jobs += _jobs_of("characters-mix", "character-simple")[:1]
    plain = run.sweep(jobs, ENV, keep_reports=True)
    traced = run.sweep(jobs, ENV, tmp_path)
    sweeps = [(False, plain), (True, traced)]
    attempted, failed, problems = run.judge(
        "mixed", 12345, jobs, sweeps, pin=False)
    assert (attempted, failed) == (6, 0), problems
    layers = run.layer_totals(traced[1])
    for name in ("hecke.bruhat_pairs", "hecke.kl_table_tsv.s",
                 "hecke.build_ball.s", "sugawara.check_dss.calls",
                 "characters.ch_simple_W.s", "cli.report_bytes"):
        assert layers[name] > 0, name
    assert layers["sugawara.check_dss.calls"] == 5


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
