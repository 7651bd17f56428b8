"""The affchar benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kl-table --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each job of the workload's seeded list (``workloads.py``) runs
in a fresh Python process, one at a time, like one ``affchar``
invocation: it pays the import and starts with cold per-process caches.
A sweep runs the whole list once; the run repeats sweeps while another
one fits in ``--seconds`` (at least one).

``--trace 0`` measures the end-to-end metrics (``END_TO_END``), after
timing the cheapest job (``roots``) a few times for ``setup_s``.
``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer metrics (``PER_LAYER``) from spans recorded by ``jobproc.py``.

Every report is checked outside the timed region (``checks.py``); with
the default seed its digest must also equal the one pinned in
``digests.json``, and every later sweep, traced or not, must print
byte-identical reports.  A job that exits non-zero, times out or fails a
check counts as failed.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 15
PROBE_ARGV = ["roots", "--type", "A", "--rank", "1"]
JOB_TIMEOUT_S = 60

END_TO_END = [("setup_s", "s"), ("sweep_s", "s"), ("job_p50_s", "s"),
              ("peak_rss_mb", "MiB")]

PER_LAYER = [
    ("cli.emit_report.s", "s"),
    ("cli.report_bytes", "bytes"),
    ("rootdata.build_root_system.s", "s"),
    ("affine.integral_system.s", "s"),
    ("affine.block_decomposition.s", "s"),
    ("affine.AffineWeylGroup.ball.s", "s"),
    ("affine.ball_elements", "count"),
    ("hecke.build_ball.s", "s"),
    ("hecke.ball_elements", "count"),
    ("hecke.bruhat_pairs.s", "s"),
    ("hecke.bruhat_pairs", "count"),
    ("hecke.kl_polynomial.s", "s"),
    ("hecke.kl_polynomial.calls", "count"),
    ("hecke.kl_table_tsv.s", "s"),
    ("hecke.kl_polynomial_via_solve.s", "s"),
    ("hecke.kl_polynomial_via_solve.calls", "count"),
    ("hecke.ParabolicModule.canonical_basis_via_solve.s", "s"),
    ("hecke.ParabolicModule.canonical_basis.s", "s"),
    ("hecke.inverse_multiplicity_matrix.s", "s"),
    ("qseries.eta_factor.s", "s"),
    ("qseries.eta_factor.calls", "count"),
    ("qseries.eta_factor.hit_ratio", "fraction"),
    ("qseries.equal_to_order.s", "s"),
    ("characters.ds_transform.s", "s"),
    ("characters.ch_verma_W.s", "s"),
    ("characters.ch_verma_Oprime.s", "s"),
    ("characters.ch_simple_W.s", "s"),
    ("sugawara.build_truncated_verma.s", "s"),
    ("sugawara.basis_size", "count"),
    ("sugawara.check_dss.s", "s"),
    ("sugawara.check_dss.calls", "count"),
    ("sugawara.dss_tested", "count"),
    ("sugawara.dss_skipped", "count"),
    ("sugawara.dss_useful_ratio", "fraction"),
    ("wstruct.vacuum_graded_character.s", "s"),
    ("wstruct.coefficients", "count"),
    ("wstruct.vanishing_violations.s", "s"),
    ("trace.overhead_share", "fraction"),
]


class Outcome:
    """One job execution: its report and the report's digest, exit
    status, wall time, peak RSS and, in traced runs, its layer totals."""

    __slots__ = ("stdout", "digest", "stderr", "code", "wall", "rss_mb",
                 "layers")

    def __init__(self, stdout, stderr, code, wall, rss_mb):
        self.stdout, self.digest = stdout, digest(stdout)
        self.stderr, self.code = stderr, code
        self.wall, self.rss_mb, self.layers = wall, rss_mb, None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv, env, timeout=JOB_TIMEOUT_S):
    """Run argv to completion; wall time from spawn to reaping, peak RSS
    from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    killed = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(max(left, 1.0) if killed else left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    code = -1 if killed else proc.returncode
    return Outcome(b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                   code, wall, usage.ru_maxrss / 1024.0)


def run_job(job, env, trace_dir=None):
    if trace_dir is not None:
        spans_file = trace_dir / "spans.txt"
        out = run_child([sys.executable, str(HERE / "jobproc.py"), "--trace",
                         str(spans_file), json.dumps(job)], env)
        if spans_file.exists():
            out.layers = job_layers(spans_file)
            spans_file.unlink()
        return out
    if "argv" in job:
        return run_child([sys.executable, "-m", "affchar.cli"] + job["argv"],
                         env)
    return run_child([sys.executable, str(HERE / "jobproc.py"),
                      json.dumps(job)], env)


def sweep(jobs, env, trace_dir=None, keep_reports=False):
    """Run the job list once.  Reports other than the reference sweep's
    are reduced to their digests: a parent that grows would inflate the
    peak RSS its later children report, since each child starts as a
    copy of it."""
    start = time.perf_counter()
    outs = []
    for job in jobs:
        out = run_job(job, env, trace_dir)
        if not keep_reports:
            out.stdout = None
        outs.append(out)
    return time.perf_counter() - start, outs


def job_layers(spans_file):
    """Self time and call count per span name, and the counters, of one
    traced job.  A span's self time is its duration minus the time its
    child spans cover.  The file is read a line at a time, into arrays,
    so that the parent stays small (see sweep)."""
    names, ids = [], {}
    name_of, duration, covered = array("i"), array("d"), array("d")
    with open(spans_file, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        for line in fh:
            name, start, end, parent = line.split("\t")
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            name_of.append(ids[name])
            duration.append(float(end) - float(start))
            covered.append(0.0)
            if int(parent) >= 0:
                covered[int(parent)] += duration[-1]
    out = dict(head["counts"])
    for i, dur, child in zip(name_of, duration, covered):
        out[names[i] + ".s"] = out.get(names[i] + ".s", 0.0) + dur - child
        out[names[i] + ".calls"] = out.get(names[i] + ".calls", 0) + 1
    out["eta_hits"], out["eta_misses"] = head["eta_cache"]
    return out


def layer_totals(outs):
    """Per-layer metrics of one traced sweep."""
    tot = {name: 0.0 for name, _ in PER_LAYER}
    tot.update(eta_hits=0, eta_misses=0)
    for out in outs:
        for key, value in out.layers.items():
            tot[key] = tot.get(key, 0) + value
    calls = tot["eta_hits"] + tot["eta_misses"]
    tot["qseries.eta_factor.hit_ratio"] = tot["eta_hits"] / calls if calls else 0.0
    useful = tot["sugawara.dss_tested"] + tot["sugawara.dss_skipped"]
    tot["sugawara.dss_useful_ratio"] = (tot["sugawara.dss_tested"] / useful
                                        if useful else 0.0)
    return tot


def digest(data):
    return hashlib.sha256(data).hexdigest()


def judge(workload, seed, jobs, sweeps, pin):
    """Check every execution; return (attempted, failed, problems).

    The first untraced sweep is the reference: its reports go through
    checks.py and, for the default seed, against the pinned digests.
    Every other execution must reproduce the reference report exactly.
    """
    rng = random.Random("check/%s/%d" % (workload, seed))
    pinned = None
    if seed == workloads.DEFAULT_SEED and not pin:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
        pinned = pinned.get(workload, {})
    problems = {}
    reference = sweeps[0][1][1]
    for job, out in zip(jobs, reference):
        found = []
        if out.code != 0:
            found.append("exit code %d: %s" % (out.code,
                                               out.stderr.decode()[-300:]))
        else:
            found += checks.check(job, out.stdout, rng)
        if pinned is not None and pinned.get(job["id"]) != out.digest:
            found.append("digest differs from the one pinned in digests.json")
        if found:
            problems[job["id"]] = found
    attempted = failed = 0
    for traced, (_, outs) in sweeps:
        for job, out, ref in zip(jobs, outs, reference):
            attempted += 1
            bad = job["id"] in problems
            if out.code != 0 or out.digest != ref.digest:
                bad = True
                problems.setdefault(job["id"], []).append(
                    "%s sweep: exit %d, report %s the reference" % (
                        "traced" if traced else "untraced", out.code,
                        "equals" if out.digest == ref.digest else "differs from"))
            if traced and out.layers is None:
                bad = True
                problems.setdefault(job["id"], []).append("no spans written")
            failed += bad
    if pin and not problems:
        data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        data[workload] = {job["id"]: out.digest
                          for job, out in zip(jobs, reference)}
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return attempted, failed, problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help="write this workload's report digests for the "
                             "default seed to digests.json")
    args = parser.parse_args(argv)
    if args.pin_digests and args.seed != workloads.DEFAULT_SEED:
        parser.error("--pin-digests needs the default seed %d"
                     % workloads.DEFAULT_SEED)
    if not (SRC / "affchar" / "cli.py").is_file():
        sys.stderr.write("perfbench: no affchar sources under %s; run from "
                         "the root of a source checkout\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    jobs = workloads.job_list(args.workload, args.seed)

    # warm-up: byte-compiles the package once and proves it runs
    probe = [sys.executable, "-m", "affchar.cli"] + PROBE_ARGV
    warm = run_child(probe, env)
    if warm.code != 0:
        sys.stderr.write("perfbench: `affchar %s` failed (exit %d):\n%s\n" % (
            " ".join(PROBE_ARGV), warm.code, warm.stderr.decode()[-2000:]))
        return 2
    setup = []
    if not args.trace:
        setup = [run_child(probe, env).wall for _ in range(SETUP_PROBES)]

    trace_dir = None
    if args.trace:
        trace_dir = HERE / ".work" / str(os.getpid())
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        sweeps = []  # (traced, (wall, outcomes))
        start = time.perf_counter()
        while True:
            if args.trace:
                order = (False, True) if len(sweeps) % 4 == 0 else (True, False)
            else:
                order = (False,)
            for traced in order:
                sweeps.append((traced, sweep(
                    jobs, env, trace_dir if traced else None,
                    keep_reports=not sweeps)))
            plain = [w for t, (w, _) in sweeps if not t]
            traced_walls = [w for t, (w, _) in sweeps if t]
            typical = statistics.median(plain) + (
                statistics.median(traced_walls) if args.trace else 0.0)
            if time.perf_counter() - start + typical > args.seconds:
                break
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            try:
                trace_dir.parent.rmdir()
            except OSError:  # another run's spans are still there
                pass

    sweeps.sort(key=lambda s: s[0])  # the first untraced sweep leads
    attempted, failed, problems = judge(args.workload, args.seed, jobs,
                                        sweeps, args.pin_digests)
    for job_id, found in sorted(problems.items()):
        for problem in found:
            sys.stderr.write("FAILED %s: %s\n" % (job_id, problem))

    plain = [(w, outs) for t, (w, outs) in sweeps if not t]
    walls = [o.wall for _, outs in plain for o in outs]
    e2e = {
        "sweep_s": statistics.median(w for w, _ in plain),
        "job_p50_s": statistics.median(walls),
        "peak_rss_mb": max(o.rss_mb for _, outs in plain for o in outs),
    }
    print("workload %s, seed %d: %d jobs per sweep, %d untraced and %d "
          "traced sweeps, one job process at a time"
          % (args.workload, args.seed, len(jobs), len(plain),
             len(sweeps) - len(plain)))
    if setup:
        e2e["setup_s"] = statistics.median(setup)
        print("  setup_s      %10.4f s    median of %d `affchar %s` processes"
              % (e2e["setup_s"], len(setup), " ".join(PROBE_ARGV)))
    print("  sweep_s      %10.4f s    median of %d sweeps"
          % (e2e["sweep_s"], len(plain)))
    print("  job_p50_s    %10.4f s    median of %d job processes"
          % (e2e["job_p50_s"], len(walls)))
    print("  peak_rss_mb  %10.2f MiB  largest job process" % e2e["peak_rss_mb"])
    print("  failed_share %10.4f      %d of %d job executions failed"
          % (failed / attempted, failed, attempted))

    if args.trace:
        traced = [(w, outs) for t, (w, outs) in sweeps if t]
        totals = [layer_totals(outs) for _, outs in traced
                  if all(o.layers is not None for o in outs)] or [
                      {name: 0.0 for name, _ in PER_LAYER}]
        layers = {name: statistics.median(t[name] for t in totals)
                  for name, _ in PER_LAYER}
        layers["trace.overhead_share"] = (
            statistics.median(w for w, _ in traced) / e2e["sweep_s"] - 1.0)
        print("per-layer metrics, median of %d traced sweeps:" % len(totals))
        for name, unit in PER_LAYER:
            print("  %-50s %14.6g %s" % (name, layers[name], unit))
        values = {name: metric(layers[name], unit) for name, unit in PER_LAYER}
    else:
        values = {name: metric(e2e[name], unit) for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
