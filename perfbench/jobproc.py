"""One benchmark job in its own process.

    python3 perfbench/jobproc.py [--trace SPANS_FILE] JOB_JSON

Runs one job of ``workloads.job_list``: a CLI job through
``affchar.cli.main``, a library job through ``LIBRARY_JOBS``.  The report
goes to standard output exactly as the job prints it.

With ``--trace`` the job runs with spans around the calls into each
layer's public functions (``FUNCTIONS`` and ``METHODS``), recorded here
and not in the program.  Spans stay in memory and are written to
SPANS_FILE when the job ends: a JSON header with the job id and the
counters, then one line per span, ``name TAB start TAB end TAB parent``,
in the order the spans opened.  The methods that run once per
element (``leq``, ``left_mult``, ``apply_gen``, ``QSeries.__mul__``) are
deliberately not wrapped: they are called 10^5 to 10^6 times a job, and a
span there would cost more than the work it measures.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute): spans named "<module>.<attribute>".
FUNCTIONS = [
    ("cli", "emit_report"),
    ("rootdata", "build_root_system"),
    ("affine", "integral_system"),
    ("affine", "block_decomposition"),
    ("hecke", "kl_polynomial"),
    ("hecke", "kl_table_tsv"),
    ("hecke", "kl_polynomial_via_solve"),
    ("hecke", "inverse_multiplicity_matrix"),
    ("qseries", "eta_factor"),
    ("qseries", "equal_to_order"),
    ("characters", "ds_transform"),
    ("characters", "ch_verma_W"),
    ("characters", "ch_verma_Oprime"),
    ("characters", "ch_simple_W"),
    ("sugawara", "build_truncated_verma"),
    ("sugawara", "check_dss"),
    ("wstruct", "vacuum_graded_character"),
    ("wstruct", "vanishing_violations"),
]

# (module, class, method, span name).  Every ball is built by the
# BruhatBall constructor, whether through build_ball or directly.
METHODS = [
    ("hecke", "BruhatBall", "__init__", "hecke.build_ball"),
    ("hecke", "ParabolicModule", "canonical_basis",
     "hecke.ParabolicModule.canonical_basis"),
    ("hecke", "ParabolicModule", "canonical_basis_via_solve",
     "hecke.ParabolicModule.canonical_basis_via_solve"),
    ("affine", "AffineWeylGroup", "ball", "affine.AffineWeylGroup.ball"),
]


def _count_ball(args, result):
    return {"hecke.ball_elements": len(args[0].elements)}


def _count_dss(args, report):
    return {"sugawara.dss_tested": report.tested,
            "sugawara.dss_skipped": report.skipped}


# span name -> function(args, result) -> {counter: increment}
COUNTERS = {
    "cli.emit_report": lambda args, out: {"cli.report_bytes": len(out)},
    "hecke.build_ball": _count_ball,
    "affine.AffineWeylGroup.ball":
        lambda args, balls: {"affine.ball_elements": len(balls)},
    "sugawara.build_truncated_verma":
        lambda args, module: {"sugawara.basis_size": len(module.basis)},
    "sugawara.check_dss": _count_dss,
    "wstruct.vacuum_graded_character":
        lambda args, char: {"wstruct.coefficients": len(char.coeffs)},
}


class Tracer:
    """Spans (name, start, end, parent index) and counters of one job."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.count(key, n)
            return result
        return traced


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "affchar" or name.startswith("affchar.")]


def install(tracer):
    """Wrap the layer entry points and the kl table handler; return the
    unwrapped eta_factor, whose cache statistics the trace reports."""
    cli = importlib.import_module("affchar.cli")
    mods = {name: importlib.import_module("affchar." + name)
            for name in {m for m, _ in FUNCTIONS} | {m for m, *_ in METHODS}}
    eta = mods["qseries"].eta_factor
    for mod, attr in FUNCTIONS:
        orig = getattr(mods[mod], attr)
        wrapped = tracer.wrap("%s.%s" % (mod, attr), orig)
        # rebind every imported name too (``from .hecke import ...``)
        for module in _modules():
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
    for mod, cls, meth, name in METHODS:
        klass = getattr(mods[mod], cls)
        setattr(klass, meth, tracer.wrap(name, getattr(klass, meth)))

    # The kl handler filters Bruhat pairs inline; make the same calls
    # here with a span around the filter.  The traced report must stay
    # byte-identical to the untraced one, which run.py checks.
    cmd_kl = cli._COMMANDS["kl"]

    def traced_cmd_kl(job):
        if job.get("x") is not None or job.get("y") is not None:
            return cmd_kl(job)
        ball = cli.build_ball(
            cli._coxeter_from_job(job),
            cli._positive_int(job.get("length_bound", 8), "length_bound"))
        idx = tracer.open("hecke.bruhat_pairs")
        els = ball.all_elements()
        pairs = [(x, y) for y in els for x in els if ball.leq(x, y)]
        tracer.close(idx)
        tracer.count("hecke.bruhat_pairs", len(pairs))
        return {"table_tsv": cli.kl_table_tsv(ball, pairs),
                "pairs": len(pairs)}

    cli._COMMANDS["kl"] = traced_cmd_kl
    return eta


# ---------------------------------------------------------------------------
# library jobs: the CLI has no subcommand for these
# ---------------------------------------------------------------------------

def _basis_rows(ball, vec):
    return sorted(["".join(str(i) for i in ball.elements[key].word) or "e",
                   poly.coeff_list()] for key, poly in vec.items())


def kl_oracle(args):
    """P_{x,y} for every x <= y by the mu-recursion and by the linear
    solve."""
    from affchar import hecke
    ball = hecke.build_ball(args["coxeter_matrix"], args["length_bound"])
    y = ball.element_by_word(tuple(args["y"]))
    rows = []
    for x in ball.interval_below(y):
        rows.append({"x": list(x.word),
                     "recursion": hecke.kl_polynomial(ball, x, y).coeff_list(),
                     "oracle": hecke.kl_polynomial_via_solve(
                         ball, x, y).coeff_list()})
    return {"y": list(y.word), "rows": rows,
            "matches": all(r["recursion"] == r["oracle"] for r in rows)}


def parabolic_oracle(args):
    """n_w by the mu-correction recursion and by the bar-invariance
    solve, for every minimal coset representative of maximal length."""
    from affchar import hecke
    ball = hecke.build_ball(args["coxeter_matrix"], args["length_bound"])
    mod = hecke.ParabolicModule(ball, args["parabolic"], args["param"])
    mins = mod.minimal_elements()
    top = max(e.length for e in mins)
    rows = []
    for w in (e for e in mins if e.length == top):
        rows.append({"w": list(w.word),
                     "recursion": _basis_rows(ball, mod.canonical_basis(w)),
                     "oracle": _basis_rows(
                         ball, mod.canonical_basis_via_solve(w))})
    return {"rows": rows,
            "matches": all(r["recursion"] == r["oracle"] for r in rows)}


def vacuum_law(args):
    """Vacuum character in the kernel orientation and its violations of
    the vanishing law m <= n j."""
    from affchar import rootdata, wstruct
    rs = rootdata.build_root_system(args["type"], args["rank"])
    char = wstruct.vacuum_graded_character(rs, args["n"], args["max_u"],
                                           args["max_q"], convention="kernel")
    return {"vacuum_character": char.to_json_dict(),
            "violations": [list(v) for v in
                           wstruct.vanishing_violations(char, args["n"])]}


LIBRARY_JOBS = {
    "kl-oracle": kl_oracle,
    "parabolic-oracle": parabolic_oracle,
    "vacuum-law": vacuum_law,
}


def run_job(job):
    """Run one job in this process; return its exit code."""
    if "argv" in job:
        from affchar import cli
        return cli.main(job["argv"])
    result = LIBRARY_JOBS[job["call"]](job["args"])
    sys.stdout.write(json.dumps(result, sort_keys=True, indent=1) + "\n")
    return 0


def main(argv):
    spans_file = None
    if argv[:1] == ["--trace"]:
        spans_file, argv = argv[1], argv[2:]
    job = json.loads(argv[0])
    if spans_file is None:
        return run_job(job)
    tracer = Tracer()
    eta = install(tracer)
    try:
        return run_job(job)
    finally:
        sys.stdout.flush()
        info = eta.cache_info()
        with open(spans_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"job": job["id"], "counts": tracer.counts,
                                 "eta_cache": [info.hits, info.misses]}))
            for name, start, end, parent in tracer.spans:
                fh.write("\n%s\t%r\t%r\t%d" % (name, start, end, parent))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
