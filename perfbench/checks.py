"""Output checks, run outside the timed region.

``check(job, stdout, rng)`` returns a list of problems; an empty list
means the report is right.  Three kinds of evidence are used:

* identities the job verifies itself (``all_passed`` of sugawara-check,
  ``matches_w_verma`` of ds-transform, recursion == oracle);
* invariants of the answer (P_{x,y}(0) = 1 and the KL degree bound on
  every kl row, the kernel vanishing law of vacuum characters,
  nonnegative simple-character coefficients);
* recomputation of a seeded sample by another route: kl-table rows with
  short y by the linear-solve oracle, kl point queries by the recursion
  on the smallest ball that holds y.

run.py adds the digest checks (pinned digests for the default seed,
identical reports across sweeps and between traced and untraced runs).
"""

import json


def _word(text):
    return () if text == "e" else tuple(int(c) for c in text)


def _kl_row_problems(xlen, ylen, coeffs, where):
    """P_{x,y}(0) = 1 and deg P_{x,y} <= (l(y) - l(x) - 1) / 2."""
    if len(coeffs) < 2 or coeffs[0] != 0 or coeffs[1] != 1:
        return ["%s: P(0) != 1 (%s)" % (where, coeffs)]
    bound = (ylen - xlen - 1) // 2 if ylen > xlen else 0
    if len(coeffs) - 2 > bound:
        return ["%s: degree %d above bound %d"
                % (where, len(coeffs) - 2, bound)]
    return []


def _argv_value(argv, flag):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    raise KeyError(flag)


def kl_table(job, report, rng):
    from affchar import hecke
    lines = report["table_tsv"].splitlines()
    if lines[0] != "y\tw\tcoeffs\tconvention":
        return ["unexpected table header %r" % lines[0]]
    rows = [line.split("\t") for line in lines[1:]]
    problems = []
    if len(rows) != report["pairs"]:
        problems.append("%d rows for %d pairs" % (len(rows), report["pairs"]))
    short = []
    for xs, ys, cs, _ in rows:
        x, y = _word(xs), _word(ys)
        coeffs = [int(c) for c in cs.split(",")]
        problems += _kl_row_problems(len(x), len(y), coeffs, xs + "<=" + ys)
        if len(x) < len(y) <= 4:
            short.append((x, y, coeffs))
    matrix = json.loads(_argv_value(job["argv"], "--coxeter-matrix"))
    for x, y, coeffs in rng.sample(short, min(3, len(short))):
        ball = hecke.build_ball(matrix, len(y))
        got = hecke.kl_polynomial_via_solve(ball, x, y).coeff_list()
        if got != coeffs:
            problems.append("oracle gives %s for %s<=%s, table %s"
                            % (got, x, y, coeffs))
    return problems


def kl_point(job, report, rng):
    from affchar import hecke
    x, y = tuple(report["x"]), tuple(report["y"])
    coeffs = report["polynomial_in_q"]
    problems = _kl_row_problems(len(x), len(y), coeffs, "query")
    matrix = json.loads(_argv_value(job["argv"], "--coxeter-matrix"))
    ball = hecke.build_ball(matrix, len(y))
    got = hecke.kl_polynomial(ball, x, y).coeff_list()
    if got != coeffs:
        problems.append("recursion on the length-%d ball gives %s, job %s"
                        % (len(y), got, coeffs))
    return problems


def kl_oracle(job, report, rng):
    problems = [] if report["matches"] else ["job reports a mismatch"]
    ylen = len(report["y"])
    for row in report["rows"]:
        if row["recursion"] != row["oracle"]:
            problems.append("x=%s: recursion %s, oracle %s"
                            % (row["x"], row["recursion"], row["oracle"]))
        problems += _kl_row_problems(len(row["x"]), ylen, row["recursion"],
                                     "x=%s" % row["x"])
    if len(report["rows"]) < 2:
        problems.append("interval below y has %d elements"
                        % len(report["rows"]))
    return problems


def parabolic_oracle(job, report, rng):
    problems = [] if report["matches"] else ["job reports a mismatch"]
    if not report["rows"]:
        problems.append("no minimal coset representative compared")
    for row in report["rows"]:
        if row["recursion"] != row["oracle"]:
            problems.append("w=%s: recursion and oracle differ" % row["w"])
    return problems


def _pbw_basis_size(depth, f0_bound):
    """PBW monomials in e, h, f modes below zero of total depth <= depth,
    times f_0^j for j <= f0_bound: three-coloured partitions."""
    parts = [1] + [0] * depth
    for i in range(1, depth + 1):
        for _ in range(3):
            for n in range(i, depth + 1):
                parts[n] += parts[n - i]
    return sum(parts) * (f0_bound + 1)


def sugawara_check(job, report, rng):
    """Unflipped jobs must pass.  A flipped job flows by -lam_check while
    the identity is stated for +lam_check, so every mode must report
    mismatches; the highest-weight shift holds in both conventions.
    Every basis vector is either tested or skipped."""
    argv = job["argv"]
    flipped = "--flip-flow-sign" in argv
    size = _pbw_basis_size(int(_argv_value(argv, "--depth")),
                           int(_argv_value(argv, "--f0-bound")))
    problems = []
    if report["basis_size"] != size:
        problems.append("basis size %d, expected %d"
                        % (report["basis_size"], size))
    if report["all_passed"] == flipped:
        problems.append("all_passed is %s" % report["all_passed"])
    for rep in report["reports"]:
        if rep["tested"] + rep["skipped"] != size:
            problems.append("n=%d: %d tested + %d skipped != %d vectors" % (
                rep["n"], rep["tested"], rep["skipped"], size))
        if rep["hw_shift_expected"] != rep["hw_shift_actual"]:
            problems.append("n=%d: highest-weight shift %s != %s" % (
                rep["n"], rep["hw_shift_actual"], rep["hw_shift_expected"]))
        if rep["tested"] == 0:
            problems.append("n=%d: no vector tested" % rep["n"])
        if (rep["mismatches"] > 0) != flipped:
            problems.append("n=%d: %d mismatches" % (rep["n"],
                                                     rep["mismatches"]))
    if len(report["reports"]) != 5:
        problems.append("%d modes reported" % len(report["reports"]))
    return problems


def ds_transform(job, report, rng):
    return [] if report["matches_w_verma"] else ["matches_w_verma is false"]


def character_simple(job, report, rng):
    coeffs = report["simple_character"]["series"]["coeffs"]
    negative = [c for c in coeffs if c < 0]
    return ["negative character coefficients %s" % negative[:5]] if negative else []


def blocks(job, report, rng):
    problems = []
    if report["block_count"] != len(report["blocks"]) or not report["blocks"]:
        problems.append("block_count %d for %d blocks"
                        % (report["block_count"], len(report["blocks"])))
    return problems


def _vanishing_problems(char):
    """Kernel law: no coefficient of u^j q^m with m > n j; the appendix
    orientation negates m."""
    n, sign = char["n"], (1 if char["convention"] == "kernel" else -1)
    bad = []
    for jm, c in char["coefficients"].items():
        j, m = (int(t) for t in jm.split(","))
        if c != 0 and sign * m > n * j:
            bad.append(jm)
    return ["vanishing law fails at %s" % bad[:5]] if bad else []


def vacuum_char(job, report, rng):
    char = report["vacuum_character"]
    problems = _vanishing_problems(char)
    if not char["coefficients"]:
        problems.append("empty character")
    return problems


def vacuum_law(job, report, rng):
    problems = _vanishing_problems(report["vacuum_character"])
    if report["violations"]:
        problems.append("job reports violations %s" % report["violations"][:5])
    return problems


CHECKS = {
    "kl-table": kl_table,
    "kl-point": kl_point,
    "kl-oracle": kl_oracle,
    "parabolic-oracle": parabolic_oracle,
    "sugawara-check": sugawara_check,
    "ds-transform": ds_transform,
    "character-simple": character_simple,
    "blocks": blocks,
    "vacuum-char": vacuum_char,
    "vacuum-law": vacuum_law,
}


def check(job, stdout, rng):
    """Problems with one job's report; [] when it is right."""
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc]
    try:
        return CHECKS[job["check"]](job, report, rng)
    except Exception as exc:  # a malformed report or a failed recomputation
        return ["check raised %r" % (exc,)]
