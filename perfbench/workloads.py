"""Seeded job generator.

A workload's job list is a pure function of (workload, seed): the same
pair always gives the same list, and the program under test sees only
the generated jobs.  Every list is stratified: it holds one job per cell
of the workload's fixed grid of problem shapes, and the seed draws what
varies inside a cell (generator relabellings, elements, weights, levels,
flow signs) and the order of the jobs.  Two seeds therefore ask for the
same amount of work, so a sweep's wall time is comparable across seeds,
while no seed can be tuned to by caching its exact inputs.

A job is a JSON-ready dict:

* ``id``: ``<workload>/<index>``;
* ``check``: the name of the output check in ``checks.py``;
* ``argv``: the ``affchar`` command line, for jobs the CLI offers; or
* ``call`` and ``args``: a library job run by ``jobproc.py``.
"""

import json
import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 20201122

# Coxeter matrices (0 is an infinite bond).
AFFINE_A2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
AFFINE_C2 = [[1, 4, 2], [4, 1, 4], [2, 4, 1]]
AFFINE_G2 = [[1, 6, 2], [6, 1, 3], [2, 3, 1]]
AFFINE_A1 = [[1, 0], [0, 1]]
FINITE_A4 = [[1, 3, 2, 2], [3, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]
FINITE_A3 = [[1, 3, 2], [3, 1, 3], [2, 3, 1]]
FINITE_B3 = [[1, 4, 2], [4, 1, 3], [2, 3, 1]]
FINITE_B2 = [[1, 4], [4, 1]]
FINITE_G2 = [[1, 6], [6, 1]]
UNIVERSAL_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
HYPERBOLIC_3 = [[1, 4, 0], [4, 1, 0], [0, 0, 1]]

# Full KL tables: (group, length bound).  Bounds of A4 past 10 (its
# longest element) leave the table unchanged, so its bound is drawn.
KL_TABLE_CELLS = [
    (AFFINE_A2, 9),
    (AFFINE_A2, 10),
    (AFFINE_C2, 10),
    (AFFINE_G2, 12),
    (FINITE_A4, None),
]

# The words of x and y below are in the generators of the matrix as
# written; the seed renumbers the generators, which maps the query to an
# isomorphic one of the same cost while its reduced words and recursion
# order change.  A drawn x or y would make one query's recursion cost
# vary up to sixfold from seed to seed.

# Point queries on large balls: (group, length bound, x, y).  x drops
# three letters of y, so x <= y by the subword property.
KL_POINT_CELLS = [
    (UNIVERSAL_3, 13, "02002", "02010202"),
    (UNIVERSAL_3, 13, "212002", "020120102"),
    (UNIVERSAL_3, 14, "020212", "020212102"),
    (HYPERBOLIC_3, 14, "002021", "010212021"),
    (HYPERBOLIC_3, 14, "1002102", "1201021021"),
]

# Recursion-versus-oracle jobs: (group, length bound, y); every x <= y
# is computed both ways.  The bound of affine A1 is drawn.
KL_ORACLE_CELLS = [
    (FINITE_A3, 6, "01021"),
    (FINITE_B3, 9, "0102"),
    (FINITE_B2, 4, "0101"),
    (FINITE_G2, 6, "010101"),
    (AFFINE_A1, None, "0101010"),
    (AFFINE_A2, 4, "0120"),
]

# Parabolic canonical basis against its oracle: (group, length bound,
# generators that J = {s} may be, all alike under a diagram symmetry);
# every minimal coset representative of maximal length is compared.
PARABOLIC_CELLS = [
    (AFFINE_A2, 6, [0, 1, 2]),
    (AFFINE_C2, 6, [0, 2]),
]

# sugawara-check jobs: (depth bound, f0 bound, coweight, flipped flow);
# "rho" is one of rho-check and minus rho-check, None is drawn freely.
# The coweight sets the work and the memory (alpha-check most), so every
# list holds each coweight in the same shapes: the largest module with
# alpha-check unflipped is always the peak-RSS job.  The seed draws
# (a, k) for every job, which of rho-check and minus rho-check takes
# which of the two middle shapes, and the smallest job's coweight and
# sign.  Five jobs put the median job among the two depth-4, f0-2 jobs
# of like cost.
SUGAWARA_CELLS = [
    (5, 2, "2", False),
    (5, 1, "rho", True),
    (4, 2, "rho", False),
    (4, 2, "2", True),
    (4, 1, None, None),
]
SUGAWARA_LEVELS = ["-1/2", "-3/2", "1/2", "1", "2", "-1/3", "2/3", "5/2",
                   "3", "-4/3"]
SUGAWARA_WEIGHTS = ["0", "1", "1/2", "-1/2", "2", "3/4", "-1"]
# rho-check and minus rho-check of sl2.
SUGAWARA_RHO_CHECKS = ["1", "-1"]

# Drinfeld-Sokolov transform: (type, rank, truncation).
DS_CELLS = [("A", 2, 120), ("B", 2, 100), ("G", 2, 90), ("A", 3, 80),
            ("C", 3, 60)]
DS_LEVELS = ["1/3", "-1/2", "2/5", "5/2", "7/3", "-1/4"]
DS_COORDS = ["0", "1", "1/2", "-1/3", "2", "3/4"]

# sl2 chains: (level, weight) pairs that are regular antidominant at
# negative level with integral group of affine type A1.
SL2_CHAINS = [("-4", "-2"), ("-5", "-2"), ("-5", "-3"), ("-6", "-2"),
              ("-6", "-3"), ("-7/2", "-2"), ("-7/2", "-3"), ("-9/2", "-2"),
              ("-9/2", "-3"), ("-8/3", "-2")]
# sl3 weights with integral group of affine type A2 and their minimal
# coset representatives of length 6 to 10 (finite simples 0 and 1).
SL3_BLOCKS = [("-7", "-2,-2"), ("-7", "-2,-3"), ("-8", "-2,-2"),
              ("-8", "-3,-3"), ("-10", "-2,-3")]
SL3_MINIMAL_WORDS = [
    "201020", "201021", "201201", "210210", "2010201", "2010210", "2012012",
    "2102102", "20102010", "20102012", "20102102", "20120120", "21021021",
    "201020102", "201020120", "201021021", "201201201", "210210210",
    "2010201020", "2010201021", "2010201201", "2010210210", "2012012012",
    "2102102102"]
MULTIPLICITY_RULES = ["kl", "parabolic:q", "parabolic:-1"]

# Vacuum characters: (type, rank, n), each in both energy signs, on the
# window u <= 30, q <= 120.
VACUUM_CELLS = [("A", 3, 1), ("B", 3, 2), ("G", 2, 3)]
VACUUM_MAX_U, VACUUM_MAX_Q = 30, 120


def _relabel(matrix, rng):
    """matrix with its generators renumbered at random, and the map from
    old generator numbers to new ones."""
    perm = list(range(len(matrix)))
    rng.shuffle(perm)
    return ([[matrix[p][q] for q in perm] for p in perm],
            {old: new for new, old in enumerate(perm)})


def _matrix_arg(matrix):
    return json.dumps(matrix, separators=(",", ":"))


def _word_arg(word):
    return ",".join(str(i) for i in word)


def _renumbered(word, renumber):
    return ",".join(str(renumber[int(g)]) for g in word)


def _kl_table(rng):
    jobs = []
    for matrix, bound in KL_TABLE_CELLS:
        if bound is None:
            bound = rng.randint(9, 12)
        jobs.append({"check": "kl-table", "argv": [
            "kl", "--coxeter-matrix", _matrix_arg(_relabel(matrix, rng)[0]),
            "--length-bound", str(bound)]})
    return jobs


def _kl_verify(rng):
    jobs = []
    for matrix, bound, x, y in KL_POINT_CELLS:
        matrix, renumber = _relabel(matrix, rng)
        jobs.append({"check": "kl-point", "argv": [
            "kl", "--coxeter-matrix", _matrix_arg(matrix),
            "--length-bound", str(bound), "--x", _renumbered(x, renumber),
            "--y", _renumbered(y, renumber)]})
    for matrix, bound, y in KL_ORACLE_CELLS:
        matrix, renumber = _relabel(matrix, rng)
        jobs.append({"check": "kl-oracle", "call": "kl-oracle", "args": {
            "coxeter_matrix": matrix,
            "length_bound": rng.randint(7, 9) if bound is None else bound,
            "y": [renumber[int(g)] for g in y]}})
    for matrix, bound, choices in PARABOLIC_CELLS:
        matrix, renumber = _relabel(matrix, rng)
        jobs.append({"check": "parabolic-oracle", "call": "parabolic-oracle",
                     "args": {"coxeter_matrix": matrix,
                              "length_bound": bound,
                              "parabolic": [renumber[rng.choice(choices)]],
                              "param": rng.choice(["q", "-1"])}})
    return jobs


def _sugawara_flow(rng):
    rho_checks = list(SUGAWARA_RHO_CHECKS)
    rng.shuffle(rho_checks)
    jobs = []
    for depth, f0, coweight, flip in SUGAWARA_CELLS:
        if coweight == "rho":
            coweight = rho_checks.pop()
        elif coweight is None:
            coweight = rng.choice(SUGAWARA_RHO_CHECKS + ["2"])
        if flip is None:
            flip = rng.choice([False, True])
        argv = ["sugawara-check", "--type", "A", "--rank", "1",
                "--level=" + rng.choice(SUGAWARA_LEVELS),
                "--weight=" + rng.choice(SUGAWARA_WEIGHTS),
                "--lam-check=" + coweight,
                "--depth", str(depth), "--f0-bound", str(f0),
                "--modes=-2,-1,0,1,2"]
        if flip:
            argv += ["--flip-flow-sign", "true"]
        jobs.append({"check": "sugawara-check", "argv": argv})
    return jobs


def _characters_mix(rng):
    jobs = []
    for letter, rank, trunc in DS_CELLS:
        coords = ",".join(rng.choice(DS_COORDS) for _ in range(rank))
        jobs.append({"check": "ds-transform", "argv": [
            "ds-transform", "--type", letter, "--rank", str(rank),
            "--level=" + rng.choice(DS_LEVELS), "--weight=" + coords,
            "--trunc", str(trunc)]})
    for _ in range(2):
        level, weight = rng.choice(SL2_CHAINS)
        w = [1 - i % 2 for i in range(rng.randint(4, 10))]
        jobs.append({"check": "character-simple", "argv": [
            "character-simple", "--type", "A", "--rank", "1",
            "--level=" + level, "--weight=" + weight, "--w", _word_arg(w),
            "--length-bound", "10", "--trunc", str(rng.randint(30, 60))]})
    for rule in MULTIPLICITY_RULES:
        level, weight = rng.choice(SL3_BLOCKS)
        w = rng.choice(SL3_MINIMAL_WORDS)
        jobs.append({"check": "character-simple", "argv": [
            "character-simple", "--type", "A", "--rank", "2",
            "--level=" + level, "--weight=" + weight, "--w", _word_arg(w),
            "--length-bound", "10", "--trunc", str(rng.randint(20, 40)),
            "--multiplicities", rule]})
    level, weight = rng.choice(SL3_BLOCKS)
    jobs.append({"check": "blocks", "argv": [
        "blocks", "--type", "A", "--rank", "2", "--level=" + level,
        "--weight=" + weight, "--length-bound", str(rng.randint(10, 12))]})
    for letter, rank, n in VACUUM_CELLS:
        for sign in ("appendix", "kernel"):
            jobs.append({"check": "vacuum-char", "argv": [
                "vacuum-char", "--type", letter, "--rank", str(rank),
                "--n", str(n), "--max-u", str(VACUUM_MAX_U),
                "--max-q", str(VACUUM_MAX_Q), "--energy-sign", sign]})
    letter, rank, n = rng.choice(VACUUM_CELLS)
    jobs.append({"check": "vacuum-law", "call": "vacuum-law", "args": {
        "type": letter, "rank": rank, "n": n,
        "max_u": VACUUM_MAX_U, "max_q": VACUUM_MAX_Q}})
    return jobs


WORKLOADS = {
    "kl-table": _kl_table,
    "kl-verify": _kl_verify,
    "sugawara-flow": _sugawara_flow,
    "characters-mix": _characters_mix,
}


def job_list(workload, seed):
    """The seeded job list of a workload, in run order."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r (want one of %s)"
                         % (workload, ", ".join(sorted(WORKLOADS))))
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = "%s/%02d" % (workload, i)
    return jobs
