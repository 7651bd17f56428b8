"""The benchmark's traced job runner against the names it hooks.

``perfbench/jobproc.py --trace`` wraps named functions and methods of the
layers and replaces the ``kl`` handler with a traced copy that reads
``cli`` and ``BruhatBall`` names.  A rename or deletion of any of them
breaks only traced benchmark runs, which the test suite never starts; so
each job here runs traced and untraced in a subprocess, and the traced run
must exit 0, write its spans, open the spans of the hooked layer and
print exactly the untraced report.  The output checks of
``perfbench/checks.py`` read the layers too, by recomputing a report's
polynomials, so each kind of Hecke job's report must pass them.  Every
report of the default seed must also hash to its digest pinned in
``perfbench/digests.json``, so a changed report fails here and not first
at the benchmark.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
JOBPROC = PERFBENCH / "jobproc.py"

# (job, a span the traced run must open)
JOBS = [
    ({"id": "kl-table", "argv": [
        "kl", "--coxeter-matrix", "[[1,3,3],[3,1,3],[3,3,1]]",
        "--length-bound", "4"]}, "hecke.bruhat_pairs"),
    ({"id": "kl-point", "argv": [
        "kl", "--coxeter-matrix", "[[1,3,3],[3,1,3],[3,3,1]]",
        "--length-bound", "6", "--x", "0", "--y", "0,1,2,0"]},
     "hecke.kl_polynomial"),
    ({"id": "kl-oracle", "call": "kl-oracle", "args": {
        "coxeter_matrix": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
        "length_bound": 4, "y": [2, 0, 1, 2]}},
     "hecke.kl_polynomial_via_solve"),
    ({"id": "parabolic-oracle", "call": "parabolic-oracle", "args": {
        "coxeter_matrix": [[1, 4, 4], [4, 1, 2], [4, 2, 1]],
        "length_bound": 4, "parabolic": [1], "param": "-1"}},
     "hecke.ParabolicModule.canonical_basis_via_solve"),
    ({"id": "character-simple", "argv": [
        "character-simple", "--type", "A", "--rank", "2", "--level=-7",
        "--weight=-2,-2", "--w", "2,0,1,0,2,0", "--length-bound", "6",
        "--trunc", "12"]}, "affine.integral_system"),
    ({"id": "sugawara-check", "argv": [
        "sugawara-check", "--type", "A", "--rank", "1", "--level=-1/2",
        "--weight=1/2", "--lam-check=1", "--depth", "2", "--f0-bound", "1",
        "--modes=-1,0,1"]}, "sugawara.check_dss"),
]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(JOBPROC), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)


@pytest.mark.parametrize("job, span", JOBS, ids=[j["id"] for j, _ in JOBS])
def test_traced_job_prints_the_untraced_report(tmp_path, job, span):
    plain = _run(json.dumps(job))
    assert plain.returncode == 0, plain.stderr
    spans_file = tmp_path / "spans.tsv"
    traced = _run("--trace", str(spans_file), json.dumps(job))
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    head, *rows = spans_file.read_text(encoding="utf-8").split("\n")
    assert json.loads(head)["job"] == job["id"]
    assert span in {row.split("\t")[0] for row in rows}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the jobs of JOBS whose output check reads Hecke polynomials, each with
# the check its id names
CHECKED = [dict(job, check=job["id"]) for job, _ in JOBS
           if job["id"] in ("kl-table", "kl-point", "kl-oracle",
                            "parabolic-oracle")]


@pytest.mark.parametrize("job", CHECKED, ids=[job["id"] for job in CHECKED])
def test_report_passes_the_output_check(capsys, job):
    assert _load("jobproc").run_job(job) == 0
    stdout = capsys.readouterr().out
    assert _load("checks").check(job, stdout, random.Random(0)) == []


PINNED = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_default_seed_reports_match_the_pinned_digests(capsys, workload):
    workloads, jobproc = _load("workloads"), _load("jobproc")
    jobs = workloads.job_list(workload, workloads.DEFAULT_SEED)
    assert sorted(job["id"] for job in jobs) == sorted(PINNED[workload])
    for job in jobs:
        code = jobproc.run_job(job)
        stdout = capsys.readouterr().out.encode("utf-8")
        assert (job["id"], code, hashlib.sha256(stdout).hexdigest()) == (
            job["id"], 0, PINNED[workload][job["id"]])
