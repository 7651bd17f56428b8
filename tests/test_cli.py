import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from affchar.affine import LevelWeight, integral_system
from affchar import cli
from affchar.cli import _COMMANDS, emit_report, main, parse_tsv, _flatten
from affchar.rootdata import Level, build_root_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def digest_cases(argnames, *cases):
    """Digest pins parametrized with their argv alone as the test id, so
    re-pinning a digest keeps the test's name."""
    return pytest.mark.parametrize(argnames, cases,
                                   ids=[case[0] for case in cases])


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["root_system"]["dim"] == 8
    assert data["conventions"]["antispherical_param"] == "q"


def test_roots_over_the_step_budget_exits_3(capsys):
    code, out, err = run_cli(capsys, "roots", "--type", "A", "--rank", "1000")
    assert code == 3 and out == ""
    assert err.startswith("resource exhausted:") and "budget" in err


def test_determinism_byte_identical(capsys):
    args = ("character-simple", "--type", "A", "--rank", "1", "--level", "-4",
            "--weight", "-2", "--w", "1,0", "--trunc", "12",
            "--length-bound", "6")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# one small job of every subcommand
_EVERY_SUBCOMMAND = [
    "roots --type G --rank 2",
    "classify --type B --rank 2 --level=-7/2 --weight=1/2,-1/2",
    "orbit --type A --rank 2 --level=-5/2 --weight=1/3,-1/2 "
    "--length-bound 3",
    "blocks --type G --rank 2 --level=-9 --weight=-5/2,-3 --length-bound 5",
    "kl --coxeter-matrix [[1,4],[4,1]] --length-bound 5",
    "antispherical --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] "
    "--length-bound 4 --parabolic 1,2 --w 0,1,2",
    "character-verma --type A --rank 1 --level=-3/2 --weight 1/2 --trunc 8",
    "character-simple --type B --rank 2 --level=-7 --weight=-2,-2 "
    "--w 2,0,1 --length-bound 5 --trunc 8",
    "ds-transform --type C --rank 3 --level=1/3 --weight=1,1/2,-1 "
    "--trunc 6",
    "psi-s --type G --rank 2 --level=-9/2 --weight=1,-3 --kind simple "
    "--w0-twist true",
    "sugawara-check --level=-1/2 --weight 1/3 --depth 2 --f0-bound 1 "
    "--modes=-1,0,1",
    "jumps --type E --rank 6 --n 5/12",
    "vacuum-char --type B --rank 2 --n 1 --max-u 6 --max-q 12",
]


def _strings(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _strings(v)
    elif isinstance(value, list):
        for v in value:
            yield from _strings(v)
    elif isinstance(value, str):
        yield value


def _no_float(text):
    raise AssertionError("floating-point number %s in a report" % text)


def test_no_floats_in_any_report(capsys):
    # an int/int division anywhere in a layer would surface here as a
    # JSON float or a decimal point inside a rational string
    assert {a.split()[0] for a in _EVERY_SUBCOMMAND} == set(_COMMANDS)
    for argv in _EVERY_SUBCOMMAND:
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 0, (argv, err)
        data = json.loads(out, parse_float=_no_float)
        assert not any(re.search(r"[0-9]\.[0-9]|e[+-][0-9]", s)
                       for s in _strings(data)), argv


def test_no_floats_in_numeric_fields(capsys):
    code, out, _ = run_cli(capsys, "character-verma", "--type", "A",
                           "--rank", "1", "--level=-3/2", "--weight", "1/2",
                           "--trunc", "8")
    assert code == 0
    data = json.loads(out)
    series = data["series"]
    assert "." not in series["offset"]
    assert all(isinstance(c, int) for c in series["coeffs"])


def test_fraction_rendering(capsys):
    code, out, _ = run_cli(capsys, "jumps", "--h", "2", "--n=-0/4")
    assert code == 0
    assert json.loads(out)["jump"] == "0"
    code, out, _ = run_cli(capsys, "jumps", "--h", "2", "--n", "3/10")
    assert json.loads(out)["jump"] == "1/2"


def test_exit_code_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_exit_code_missing_field(capsys):
    code, _, err = run_cli(capsys, "classify", "--type", "A", "--rank", "1")
    assert code == 1 and "missing" in err


def test_exit_code_domain_rejection(capsys):
    # critical level
    code, _, err = run_cli(capsys, "character-verma", "--type", "A",
                           "--rank", "1", "--level", "-2", "--weight", "0")
    assert code == 2
    # blocks at an irregular weight
    code, _, err = run_cli(capsys, "blocks", "--type", "A", "--rank", "1",
                           "--level", "-3", "--weight", "0")
    assert code == 2


def test_misclassified_antidominant_weight_exits_2(capsys):
    # sl2 at k = -8/3, lam = -10: no simple affine pairing of lam + rho_hat
    # is a positive integer, but the integral coroot (-alpha, 3) pairs to 7,
    # so lam is not antidominant and no simple character is computed
    code, out, _ = run_cli(capsys, "classify", "--type", "A", "--rank", "1",
                           "--level=-8/3", "--weight=-10")
    assert code == 0
    assert json.loads(out)["classification"]["antidominant"] is False
    code, out, err = run_cli(capsys, "character-simple", "--type", "A",
                             "--rank", "1", "--level=-8/3", "--weight=-10",
                             "--w", "1", "--trunc", "4", "--length-bound", "4")
    assert code == 2 and out == ""
    assert err.startswith("domain error:")


def test_integral_weyl_group_needs_no_height_window(capsys):
    # sl2 at k = -65/11, lam = -3: the simple coroot (-alpha, 11) lies past
    # a height window of the length bound, which dropped it with exit 0;
    # both reports equal those of a window of 30, and the blocks report
    # marks all five blocks truncated, since the length-8 ball cannot hold
    # the reflection in (-alpha, 11)
    for argv, sha256 in [
        ("blocks --type A --rank 1 --level=-65/11 --weight=-3 "
         "--length-bound 8",
         "a0044a68bbf42696ca4df277d6e70be38aba4332970e48f52853d3b047806255"),
        ("character-simple --type A --rank 1 --level=-65/11 --weight=-3 "
         "--w 1 --trunc 6 --length-bound 2",
         "3bc686fda3ef47eeb21c8293dde5da317f9b60a5024ab2c44e9686a97531eb54"),
    ]:
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256
    lw = LevelWeight(build_root_system("A", 1), (-3,), Level(F(-65, 11)))
    assert [(cr.gamma, cr.m) for cr in integral_system(lw).simples] == [
        ((1,), 0), ((-1,), 11)]


def test_exit_code_resource_exhaustion(capsys):
    code, _, err = run_cli(capsys, "kl", "--coxeter-matrix", "[[1,0],[0,1]]",
                           "--length-bound", "2", "--x", "", "--y", "0,1,0,1")
    assert code == 3


@pytest.mark.parametrize("argv,code,err", [
    # x beyond the bound, y inside it
    ("kl --coxeter-matrix [[1,0],[0,1]] --length-bound 2 --x 0,1,0 --y 0",
     3, "resource exhausted: element of word (0, 1, 0) lies outside the "
        "length-2 ball\n"),
    # x inside the bound, longer than y and not below it
    ("kl --coxeter-matrix [[1,0],[0,1]] --length-bound 4 --x 0,1,0 --y 1",
     2, "domain error: kl_polynomial requires x <= y in Bruhat order\n"),
    ("antispherical --coxeter-matrix [[1,0],[0,1]] --length-bound 3 "
     "--parabolic 1 --w 0,1,0,1",
     3, "resource exhausted: element of word (0, 1, 0, 1) lies outside the "
        "length-3 ball\n"),
    # a word longer than the bound whose element is longer too
    ("character-simple --type A --rank 1 --level=-4 --weight=-2 --w 1,0,1 "
     "--length-bound 2 --trunc 4",
     3, "resource exhausted: element of word (1, 0, 1) lies outside the "
        "length-2 ball\n"),
    # an invalid matrix is reported before a malformed or missing field
    ("kl --coxeter-matrix [[1,5],[5,1]] --x a --y 0",
     2, "domain error: unsupported bond label 5 (want 2,3,4,6 or "
        "infinity)\n"),
    ("antispherical --coxeter-matrix [[1,5],[5,1]] --w 0",
     2, "domain error: unsupported bond label 5 (want 2,3,4,6 or "
        "infinity)\n"),
])
def test_point_query_exit_codes(capsys, argv, code, err):
    # the ball of a point query has the radius of its longest word, capped
    # by --length-bound; every verdict is the one of the whole capped ball
    got, out, got_err = run_cli(capsys, *argv.split())
    assert (got, out, got_err) == (code, "", err)


def test_point_query_words_need_not_be_reduced(capsys):
    # y = s0 s0 s1 s0 = s1 s0 is longer as a word than the bound, but not
    # as an element, so it reports like its reduced word
    base = ("kl", "--coxeter-matrix", "[[1,0],[0,1]]", "--length-bound", "2",
            "--x", "0")
    code, out, _ = run_cli(capsys, *base, "--y", "0,0,1,0")
    assert code == 0
    assert (code, out) == run_cli(capsys, *base, "--y", "1,0")[:2]
    assert json.loads(out)["y"] == [1, 0]
    # the empty words: P_{e,e} = 1
    code, out, _ = run_cli(capsys, "kl", "--coxeter-matrix", "[[1,0],[0,1]]",
                           "--x=", "--y=")
    assert code == 0
    report = json.loads(out)
    assert (report["x"], report["y"], report["polynomial_in_q"]) == (
        [], [], [0, 1])


def test_point_query_ball_has_the_radius_of_its_words(capsys, monkeypatch):
    # the universal rank-3 ball of radius 40 has about 3 * 2^40 elements;
    # the query needs the ball of radius 4 only
    import affchar.hecke as hecke
    radii = []

    class Ball(hecke.BruhatBall):
        def __init__(self, coxeter_matrix, length_bound):
            radii.append(length_bound)
            assert length_bound <= 4, "point query built a radius-%d ball" \
                % length_bound
            super().__init__(coxeter_matrix, length_bound)

    monkeypatch.setattr(hecke, "BruhatBall", Ball)
    argv = ("kl", "--coxeter-matrix", "[[1,0,0],[0,1,0],[0,0,1]]",
            "--x", "0", "--y", "0,1,2,0")
    code, out, _ = run_cli(capsys, *argv, "--length-bound", "40")
    assert code == 0 and radii == [4]
    assert (code, out) == run_cli(capsys, *argv, "--length-bound", "4")[:2]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dc9867684881893e52c39f2f0d384eed1a1cfd07879dcc8b6a3bede6489ff83f")


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 1, "level": "-3",
                               "weight": ["0"], "trunc": 5}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "character-verma",
                           "--trunc", "7")
    assert code == 0
    assert json.loads(out)["series"]["truncation"] == 7


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"type": "A", "rank": 1, "wat": 1}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "roots")
    assert code == 1 and "unknown config keys" in err


def test_tsv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "--format", "tsv", "jumps", "--h", "6",
                           "--n", "5/6")
    assert code == 0
    parsed = parse_tsv(out)
    assert parsed["jump"] == "5/6"
    assert parsed["h"] == "6"
    # round trip through the emitter again
    result = {"jumps": {"h": 6, "jump": "5/6"}}
    flat = dict(_flatten(result))
    assert parse_tsv(emit_report(result, "tsv")) == \
        {k: str(v) for k, v in flat.items()}


def test_pretty_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "pretty", "roots", "--type",
                           "G", "--rank", "2")
    assert code == 0
    assert "root_system.exponents" in out


def test_sugawara_check_cli(capsys):
    code, out, _ = run_cli(capsys, "sugawara-check", "--type", "A", "--rank",
                           "1", "--level", "1", "--weight", "0", "--depth",
                           "2", "--f0-bound", "1", "--lam-check", "1",
                           "--modes", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert len(data["reports"]) == 2


def test_vacuum_char_cli(capsys):
    code, out, _ = run_cli(capsys, "vacuum-char", "--type", "A", "--rank",
                           "1", "--n", "0", "--max-u", "4", "--max-q", "6")
    assert code == 0
    data = json.loads(out)
    assert data["vacuum_character"]["coefficients"]["0,0"] == 1


def test_ds_transform_cli(capsys):
    code, out, _ = run_cli(capsys, "ds-transform", "--type", "A", "--rank",
                           "2", "--level", "1/3", "--weight", "1,1/2",
                           "--trunc", "12")
    assert code == 0
    assert json.loads(out)["matches_w_verma"] is True


def test_kl_table_dump(capsys):
    code, out, _ = run_cli(capsys, "kl", "--coxeter-matrix", "[[1,3],[3,1]]",
                           "--length-bound", "6")
    assert code == 0
    data = json.loads(out)
    lines = data["table_tsv"].strip().split("\n")
    assert lines[0].startswith("y\tw\t")
    assert data["pairs"] == len(lines) - 1
    # every S3 entry is the constant polynomial 1
    assert all(line.split("\t")[2] == "0,1" for line in lines[1:])


@digest_cases(
    "argv,pairs,sha256",
    ("kl --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] --length-bound 7", 1969,
     "83a82fa2995a2be24528ab89e6b99844de61c69f6f76d791acfa8e769da2feb0"),
    ("kl --coxeter-matrix [[1,6,2],[6,1,3],[2,3,1]] --length-bound 7", 1313,
     "8e14e3174baf50c024c14dd912aed9409af9636803072d554b039f2d714fd38f"),
    ("kl --coxeter-matrix [[1,4,2],[4,1,4],[2,4,1]] --length-bound 7", 1603,
     "f1a9861c8d86784d6bc58dcd91665adebb3ad25d36111c0819ebd041e1903652"),
    ("kl --coxeter-matrix [[1,4,0],[4,1,0],[0,0,1]] --length-bound 6", 3685,
     "9c13881b059b73379799a9bc7a525702f50c3d8965824b7b3d9319625f554dd9"),
    ("kl --coxeter-matrix [[1,null,null],[null,1,null],[null,null,1]] "
     "--length-bound 6", 3991,
     "4b614bf257794f2e665b3e83b586247913b650dbf36de7bfc9b5330981d45e5c"),
    ("kl --coxeter-matrix [[1,3,2,2],[3,1,3,2],[2,3,1,3],[2,2,3,1]] "
     "--length-bound 10", 3781,
     "12a4da68cb0596626f21228fdf0eebcdd8042964515af575b146d2c443bdbf66"),
)
def test_kl_table_digest(capsys, argv, pairs, sha256):
    # exact affine A2, G2, C2, hyperbolic, universal rank-3 and finite A4
    # tables, pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == pairs
    assert hashlib.sha256(data["table_tsv"].encode()).hexdigest() == sha256


@digest_cases(
    "argv,sha256",
    ("vacuum-char --type B --rank 3 --n 2 --max-u 30 --max-q 120 "
     "--energy-sign kernel",
     "067fd7a585602b679b017c85d407a93ff6cb9bd0af5f8a2da92e940e37175055"),
    ("vacuum-char --type G --rank 2 --n 3 --max-u 30 --max-q 120 "
     "--energy-sign appendix",
     "eebbca32ec35a222e3fa8967b519bd3ed79e56da4f1837b5a08d5b76fc6aaff5"),
    ("ds-transform --type G --rank 2 --level=2/5 --weight=2,-1/3 --trunc 90",
     "f0d2013bda5adbc6f81af6668cb12924046f4f9e43b0fc9f3467ca86f3e6de0b"),
)
def test_series_report_digest(capsys, argv, sha256):
    # B3 and G2 vacuum characters (1966 and 2146 coefficients) and a G2
    # transform to order 90, pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv", [
    "vacuum-char --type A --rank 1 --max-u 100000 --max-q 100000",
    "ds-transform --type A --rank 1 --level 1/3 --weight 1 --trunc 10000000",
])
def test_oversized_series_jobs_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 3 and out == ""
    assert err.startswith("resource exhausted:") and "budget" in err


# runs one CLI job under a 1 GiB address-space limit and prints its exit
# code, its time in seconds and its standard error as the last line
_BOUNDED_JOB = """
import json, resource, sys, time
from contextlib import redirect_stderr
from io import StringIO
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from affchar import cli
err = StringIO()
start = time.perf_counter()
with redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, time.perf_counter() - start, err.getvalue()]))
"""


@pytest.mark.parametrize("argv", [
    "vacuum-char --type A --rank 1 --max-u 0 --max-q 99999999",
    "vacuum-char --type A --rank 1 --max-u 99999999 --max-q 0",
])
def test_vacuum_windows_over_the_slot_budget_exit_3_at_once(argv):
    # each is charged at most 10^8 steps but would hold 10^8 row slots;
    # the job runs in a child process under a memory limit, so a missing
    # slot check fails this test instead of filling the memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_JOB] + argv.split(),
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, seconds, err = json.loads(proc.stdout.splitlines()[-1])
    assert code == 3 and seconds < 1
    assert err.startswith("resource exhausted:")
    assert "coefficient slots, over the budget" in err


def test_vacuum_window_is_charged_its_exact_row_slots(capsys):
    # with negative mode energies row j holds only limit(j) - lo + 1
    # entries: E8 at n = 6, max_u = 84 holds 768,181 slots (1,028,245 if
    # every row had the widest row's width) and prints the report it
    # printed before any slot budget; at max_u = 96 the exact count,
    # 1,002,337, is over the budget and the job exits 3 before any work
    window = "vacuum-char --type E --rank 8 --n 6 --max-q 0 --max-u".split()
    code, out, _ = run_cli(capsys, *window, "84")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cf3185dc0ee2ce4346e36e88b23f7e5b2f5363b65b933141a5c65bb673865d71")
    code, out, err = run_cli(capsys, *window, "96")
    assert code == 3 and out == ""
    assert "needs 1002337 coefficient slots, over the budget" in err


def test_kl_coefficient_of_five_bits(capsys):
    # h_{x,y} = v^7 (1 + 7 v^-2 + 18 v^-4) has the digit 18, past 4 bits:
    # the universal rank-3 group reaches it at length 10, and no other
    # test sees a coefficient of 16 or more, so a packing width of 4 bits
    # or less fails here
    code, out, _ = run_cli(capsys, "kl", "--coxeter-matrix",
                           "[[1,0,0],[0,1,0],[0,0,1]]", "--length-bound",
                           "10", "--x", "0,1,2", "--y", "0,1,2,0,1,2,0,1,2,0")
    assert code == 0
    assert json.loads(out)["polynomial_in_q"] == [0, 1, 7, 18]


def test_antispherical_cli(capsys):
    code, out, _ = run_cli(capsys, "antispherical", "--coxeter-matrix",
                           "[[1,0],[0,1]]", "--length-bound", "6",
                           "--parabolic", "1", "--w", "0,1")
    assert code == 0
    data = json.loads(out)
    rows = {tuple(r["y"]): r["coeffs_in_v"] for r in data["basis"]}
    assert rows[(0, 1)] == [0, 1]
    assert rows[()] == [2, 1]   # v^2


@digest_cases(
    "argv,sha256",
    ("antispherical --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] "
     "--length-bound 8 --parabolic 0 --w 1,2,0,1,0,2,1,0 "
     "--antispherical-param q",
     "faeb27fe5a743b821ccf32689e8be223c63f56ec55a1de9b5359e5b8e99c4f83"),
    ("antispherical --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] "
     "--length-bound 8 --parabolic 0 --w 1,2,0,1,0,2,1,0 "
     "--antispherical-param -1",
     "1b7a026bbd24193f4e9850ebc31fb9954b51f3fbffa1567384b0cb7f8617d7fc"),
    ("antispherical --coxeter-matrix [[1,6,2],[6,1,3],[2,3,1]] "
     "--length-bound 8 --parabolic 1 --w 0,2,1,0,1,0,2,1 "
     "--antispherical-param q",
     "eea1c2261d98366776beee43a67b9be33cae8b285a73095142605fca6dd9c08f"),
    ("antispherical --coxeter-matrix [[1,6,2],[6,1,3],[2,3,1]] "
     "--length-bound 8 --parabolic 1 --w 0,2,1,0,1,0,2,1 "
     "--antispherical-param -1",
     "8be64707e9e536ea3293d2ca7ddd7be4cdd57f866bd85732d09f0085f28dc593"),
    ("kl --coxeter-matrix [[1,4,0],[4,1,0],[0,0,1]] --length-bound 9 "
     "--x= --y 0,2,0,1,2,0,1,2,0",
     "1e353e5e9338f46597b695f8b28895a8a9f307e176874c6b62b5f6788b8d41fa"),
)
def test_hecke_report_digest(capsys, argv, sha256):
    # parabolic canonical bases of affine A2 (J = {0}) and affine G2
    # (J = {1}) for both parameters, and the hyperbolic point query
    # P_{e,y} = 1 + 5q + 8q^2 + 4q^3, pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@digest_cases(
    "argv,sha256",
    ("blocks --type A --rank 2 --level=-10 --weight=-2,-3 --length-bound 10",
     "a6f8e4288762e7d147a0bb824a7d5069c97fc66ff21aba8a29817acb93d6079f"),
    ("blocks --type A --rank 2 --level=-8 --weight=-3,-3 --length-bound 11",
     "91a1a58c6e5d77fc9449704e7622b1ab8ebad5519359f1ce9edd573e3d327c62"),
    ("blocks --type A --rank 3 --level=-9 --weight=-2,-2,-2 --length-bound 5",
     "73d4d72520ecd3ad2f341235a94c43bdde5bb71a2d013d104b75b942065a14c8"),
    ("character-simple --type A --rank 2 --level=-8 --weight=-2,-2 "
     "--w 2,0,1,0,2,1,0,2,1 --length-bound 10 --trunc 28 "
     "--multiplicities kl",
     "d36d1fd80cb130677044a0035a942ab6a9fdfaff648a6973a9d02b3a64f4e288"),
    ("character-simple --type A --rank 2 --level=-7 --weight=-2,-3 "
     "--w 2,0,1,0,2,0,1,2,0 --length-bound 10 --trunc 33 "
     "--multiplicities parabolic:-1",
     "7d496e2862b4bbe918ffec3a9fc29d01de4e1a649f3d65f44896ab251e74d085"),
    ("blocks --type B --rank 2 --level=-9 --weight=-6,-3/2 --length-bound 8",
     "74aeeecefcc07ad89f48b54819a8563b57b613638ef855eafdc953cb0da02cde"),
    ("blocks --type C --rank 2 --level=-7 --weight=-2,-2 --length-bound 8",
     "126da8312115502e019351e369e9376658d6781162f4fa06d9101a57c1198a79"),
    ("blocks --type G --rank 2 --level=-9 --weight=-5/2,-3 --length-bound 8",
     "6ab865970482a20ba21f2b8e2e5c830061cd79189067b8437fec7fb22fb56d95"),
    ("character-simple --type B --rank 2 --level=-7 --weight=-2,-2 "
     "--w 2,0,1,0,2,0 --length-bound 8 --trunc 20",
     "2e60630e21a074ec49003b797657d6e1c2882d37c52427e663bd45c099d555e1"),
    ("character-simple --type C --rank 2 --level=-7 --weight=-2,-2 "
     "--w 2,1,0,2,1,0 --length-bound 8 --trunc 20 "
     "--multiplicities parabolic:q",
     "82c0efadfc874e819b3c175edd0d5c2b17b7e32e888621c3304b2573d716f1bb"),
    ("character-simple --type G --rank 2 --level=-9 --weight=-5/2,-3 "
     "--w 2,0,3,1,3 --length-bound 8 --trunc 20 "
     "--multiplicities parabolic:-1",
     "e5a36f5a67539099d99c1459f7ea76ae9ef23cfc2ac2878d6098efd8715fc98a"),
)
def test_affine_report_digest(capsys, argv, sha256):
    # affine A2 and A3 blocks and A2 simple characters under the KL and
    # parabolic rules; B2, C2 and G2 blocks and simple characters, among
    # them a non-integral B2 weight with five blocks and a G2 weight whose
    # integral Weyl group has four generators; pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@digest_cases(
    "argv,sha256",
    ("classify --type A --rank 2 --level=-5 --weight=0,0",
     "ff2cde100691b9848f713ccbc8ef8589a2c1593f0eebc5dcf07ddcf1d92fc7c2"),
    # not antidominant: the integral coroots ((1,1), 0) and ((2,3), 0)
    # pair with lam + rho_hat to 2 and 5
    ("classify --type B --rank 2 --level=-7/2 --weight=1/2,-1/2",
     "9e5caa6856d5517ff4a0da97e5ceb46bb5bd7fe8dfea2c211bb82ce8ed9c903c"),
    ("classify --type G --rank 2 --level=-9/2 --weight=1/2,-1/3",
     "c622705fa23e89da5f96c6db11cfeb84d16b1b9f3900859302ee0a8c4d0e7078"),
    ("orbit --type A --rank 2 --level=-5 --weight=-2,-3 --length-bound 4",
     "1d47ae702636e871d52b159dcb30ba8887f36d1a9eec0cb407ed6e6b178b650c"),
    ("roots --type B --rank 3",
     "91b3ad6591821d48b3be04e3fc7199baa6a82002d69105d382c68d7b49710e56"),
    ("roots --type F --rank 4",
     "df551a43fc0bd41b0ee1b0b575851d3866846e05d51f49f44d86156698a68c53"),
    ("roots --type E --rank 6",
     "287dcc37b692a4203f38651c7fb9a5b22e1e7f3143f4318e566952fec011ceba"),
    ("psi-s --type A --rank 2 --level=-5 --weight=1,-3 --kind simple "
     "--w0-twist true",
     "2d56fdab0dd6dd21844cc3772143d52405b25ed78133f0db5502822eaaffae1b"),
    ("psi-s --type G --rank 2 --level=-9/2 --weight=1,-3 --kind simple "
     "--w0-twist true",
     "d68fb6b671bb3d62aec9fae89ed7f576b8cca84aa60ecd22e97593b4987eea69"),
    ("character-verma --type C --rank 3 --level=-7/3 --weight=1,-1/2,2 "
     "--kind oprime --trunc 12",
     "bdf1f46221829502043dad52281297c4a2e8a2b4c5e79f766ddeddec30a97f11"),
)
def test_lattice_report_digest(capsys, argv, sha256):
    # reports that print coroot or root data: A2 walls, non-integral B2
    # and G2 walls, an A2 orbit, B3/F4/E6 root data, w0-twisted
    # reductions and a C3 large-side Verma, pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@digest_cases(
    "argv,sha256",
    ("sugawara-check --type A --rank 1 --level=2 --weight=-1 --lam-check=2 "
     "--depth 4 --f0-bound 2 --modes=-2,-1,0,1,2",
     "1d625355806bf0ad0cec04c0b431dfec0d4ecb05a7af8850e7f9217a2d880120"),
    ("sugawara-check --type A --rank 1 --level=-4/3 --weight=3/4 "
     "--lam-check=1 --depth 4 --f0-bound 1 --modes=-2,-1,0,1,2 "
     "--flip-flow-sign true",
     "6576b09b67357a3ecf3c9d53b7e4eb265a7054fec773699a3fefee5817609147"),
    ("sugawara-check --type A --rank 1 --level=1/2 --weight=2/3 "
     "--lam-check=-1 --depth 3 --f0-bound 1 --modes=0,2",
     "a986ab82c2b786268979a094db04704a7bd1c7fbed1c61e7401842e07cb55bab"),
)
def test_sugawara_report_digest(capsys, argv, sha256):
    # an alpha-check depth-4, f0-2 job, a flipped rho-check job at
    # D = lcm(4, 3) = 12 (every mode mismatches by design) and a job whose
    # n = 2 row skips the vectors that h_2 or S_2 sends past the f0
    # bound, pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_non_simply_laced_real_coroots(capsys):
    # (gamma, m) with a long coroot gamma is real only for m divisible by
    # the lacing number: no wall here, and the B2 weight is one block
    code, out, _ = run_cli(capsys, "classify", "--type", "G", "--rank", "2",
                           "--level=-11", "--weight=-2,-3")
    assert code == 0
    cls = json.loads(out)["classification"]
    assert cls["regular"] is True and cls["walls"] == []
    code, out, _ = run_cli(capsys, "blocks", "--type", "B", "--rank", "2",
                           "--level=-7", "--weight=-2,-2",
                           "--length-bound", "6")
    assert code == 0
    data = json.loads(out)
    assert data["block_count"] == 1
    assert len(data["blocks"][0]["simple_labels"]) == 12


@pytest.mark.parametrize("subcommand",
                         ["classify", "orbit", "blocks", "character-simple",
                          "psi-s"])
def test_critical_level_exits_2(capsys, subcommand):
    code, out, err = run_cli(capsys, subcommand, "--type", "A", "--rank", "1",
                             "--level=-2", "--weight=0")
    assert code == 2 and out == ""
    assert err.startswith("domain error:") and "critical" in err


@pytest.mark.parametrize("argv", [
    "character-simple --type A --rank 1 --level=-4 --weight=-2 --w x",
    "kl --coxeter-matrix [[1,3],[3,1]] --x a --y 0",
])
def test_malformed_word_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("config error:") and "word" in err


@pytest.mark.parametrize("argv,config", [
    ("sugawara-check --level 1 --weight 0 --modes a", None),
    ("sugawara-check --level 1 --weight 0", {"modes": 3}),
    ("kl --coxeter-matrix 5", None),
    ("kl", {"coxeter_matrix": {"a": 1}}),
    ("sugawara-check --level 1 --weight 0,1 --depth 1 --f0-bound 1 "
     "--modes 0", None),
    ("sugawara-check --level 1 --weight 0 --lam-check 1,1 --depth 1 "
     "--f0-bound 1 --modes 0", None),
    ("psi-s --type A --rank 2 --level 1 --weight 1,2,3", None),
    # integer fields reject fractions and booleans instead of truncating
    ("sugawara-check --level 1 --weight 0 --depth 1 --f0-bound 1",
     {"modes": [0.5, 1.9]}),
    ("kl --coxeter-matrix [[1,3],[3,1]]", {"length_bound": 2.7}),
    ("character-simple --type A --rank 1 --level=-4 --weight=-2 "
     "--length-bound 4 --trunc 4", {"w": [1.5]}),
    ("sugawara-check --level 1 --weight 0 --f0-bound 1 --modes 0",
     {"depth": True}),
    # convention values outside the library's allowed sets
    ("roots --type A --rank 1 --energy-sign foo", None),
    ("vacuum-char --type A --rank 1 --energy-sign foo", None),
    ("character-simple --type A --rank 1 --level=-4 --weight=-2 "
     "--length-bound 4 --trunc 4 --multiplicities foo", None),
    ("antispherical --coxeter-matrix [[1,3],[3,1]] --parabolic 0 --w 1,0 "
     "--antispherical-param foo", None),
    # options that no longer exist: the integral Weyl group is exact and
    # antidominance is decided in closed form
    ("blocks --type A --rank 1 --level=-4 --weight=-2 --length-bound 4 "
     "--height-bound 4", None),
    ("classify --type A --rank 1 --level=-4 --weight=-2 --ball-radius 10",
     None),
    ("character-simple --type A --rank 1 --level=-4 --weight=-2 --w 1 "
     "--trunc 4", {"height_bound": 4}),
    ("classify --type A --rank 1 --level=-4 --weight=-2",
     {"ball_radius": 10}),
    # Coxeter-matrix entries are JSON integers or null (infinity)
    ("kl --coxeter-matrix [[true,3],[3,true]]", None),
    ("kl --coxeter-matrix [[1,3.0],[3.0,1]]", None),
    ("kl --coxeter-matrix [[1,1e400],[1e400,1]]", None),
    # m was accepted by every subcommand and read by none
    ("jumps --h 6 --n 5/6 --m 3", None),
    ("jumps --h 6 --n 5/6", {"m": 3}),
    # an unknown module kind is a config value outside its set, as for
    # character-verma
    ("psi-s --type A --rank 1 --level=-4 --weight=-2 --kind bogus", None),
])
def test_malformed_input_exits_1(tmp_path, capsys, argv, config):
    argv = argv.split()
    if config is not None:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("config error:")


# per config key, a job that reads it, with the key left out of the argv
_NULL_CASES = {
    "type": "classify --rank 1 --level=-4 --weight=-2",
    "rank": "classify --type A --level=-4 --weight=-2",
    "level": "classify --type A --rank 1 --weight=-2",
    "weight": "classify --type A --rank 1 --level=-4",
    "trunc": "character-verma --type A --rank 1 --level=-3/2 --weight 1/2",
    "length_bound": "kl --coxeter-matrix [[1,3],[3,1]]",
    "depth": "sugawara-check --level 1 --weight 0 --f0-bound 1 --modes 0",
    "f0_bound": "sugawara-check --level 1 --weight 0 --depth 2 --modes 0",
    "lam_check": "sugawara-check --level 1 --weight 0 --depth 2 "
                 "--f0-bound 1 --modes 0",
    "modes": "sugawara-check --level 1 --weight 0 --depth 2 --f0-bound 1",
    "flip_flow_sign": "sugawara-check --level 1 --weight 0 --depth 2 "
                      "--f0-bound 1 --modes 0",
    "w": "character-simple --type A --rank 1 --level=-4 --weight=-2 "
         "--trunc 4 --length-bound 2",
    "x": "kl --coxeter-matrix [[1,3],[3,1]] --y 0,1",
    "y": "kl --coxeter-matrix [[1,3],[3,1]] --x 0",
    "coxeter_matrix": "kl --length-bound 2",
    "parabolic": "antispherical --coxeter-matrix [[1,3],[3,1]] --w 1,0",
    "antispherical_param": "antispherical --coxeter-matrix [[1,3],[3,1]] "
                           "--parabolic 0 --w 1,0",
    "multiplicities": "character-simple --type A --rank 1 --level=-4 "
                      "--weight=-2 --w 1,0 --trunc 4 --length-bound 2",
    "energy_sign": "vacuum-char --type A --rank 1 --max-u 2 --max-q 3",
    "w0_twist": "psi-s --type A --rank 1 --level=-4 --weight=-2",
    "kind": "character-verma --type A --rank 1 --level=-3/2 --weight 1/2 "
            "--trunc 4",
    "n": "jumps --h 6",
    "h": "jumps --type A --rank 2 --n 5/6",
    "max_u": "vacuum-char --type A --rank 1 --max-q 3",
    "max_q": "vacuum-char --type A --rank 1 --max-u 2",
    "format": "roots --type A --rank 1",
}


def test_null_cases_cover_every_config_key():
    assert sorted(_NULL_CASES) == sorted(cli._KNOWN_KEYS)


@pytest.mark.parametrize("key", sorted(_NULL_CASES))
def test_null_config_value_means_absent(tmp_path, capsys, key):
    # a top-level JSON null behaves exactly as the key left out: the
    # default where there is one, "missing required field" where not
    def run(config):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        return run_cli(capsys, "--config", str(cfg), *_NULL_CASES[key].split())

    absent = run({})
    assert run({key: None}) == absent
    if absent[0] == 1:
        assert absent[2] == "config error: missing required field %r\n" % key
    else:
        # y absent is y = e, and the case's x = s_0 is not below it
        assert absent[0] == (2 if key == "y" else 0)


def test_null_length_bound_takes_the_default_and_null_rank_is_missing(
        tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"length_bound": None}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "kl",
                           "--coxeter-matrix", "[[1,3],[3,1]]")
    assert code == 0 and json.loads(out)["pairs"] == 19
    cfg.write_text(json.dumps({"rank": None, "type": "A"}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "roots")
    assert (code, out) == (1, "")
    assert err == "config error: missing required field 'rank'\n"
    # null entries inside the Coxeter matrix are infinite bonds
    cfg.write_text(json.dumps({"coxeter_matrix": [[1, None], [None, 1]]}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "kl",
                           "--length-bound", "2")
    assert code == 0 and json.loads(out)["pairs"] == 13


@pytest.mark.parametrize("argv", [
    "kl --coxeter-matrix [[1,3],[3,1]] --len 2 --x 0 --y 1,0",
    "jumps --h 6 --n 5/6 --ma 3",
])
def test_abbreviated_flags_exit_1(capsys, argv):
    # only flags spelled in full are accepted, so a prefix (unique or
    # ambiguous) is an unknown argument, not an alias
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("config error: unknown arguments")


def test_every_config_key_is_read(capsys, monkeypatch):
    read = set()
    get, require = cli.Job.get, cli.Job.require

    def recording_get(self, key, default=None):
        read.add(key)
        return get(self, key, default)

    def recording_require(self, key):
        read.add(key)
        return require(self, key)

    monkeypatch.setattr(cli.Job, "get", recording_get)
    monkeypatch.setattr(cli.Job, "require", recording_require)
    for argv in _EVERY_SUBCOMMAND:
        code, _, err = run_cli(capsys, *argv.split())
        assert code == 0, (argv, err)
    assert {argv.split()[0] for argv in _EVERY_SUBCOMMAND} == set(_COMMANDS)
    # a key no subcommand reads is an input that changes nothing
    assert sorted(cli._KNOWN_KEYS - read) == []


_SUGAWARA = ("sugawara-check --level 1 --weight 0 --depth 2 --f0-bound 1 "
             "--modes 0,1")


@pytest.mark.parametrize("cartan,code", [
    ("--type A --rank 1", 0),
    ("--type A", 0),
    ("--rank 1", 0),
    ("--type A --rank 2", 2),
    ("--rank 2", 2),
    ("--type G", 2),
    ("--type C --rank 1", 2),
    ("--type A --rank x", 1),
])
def test_sugawara_check_reads_type_and_rank(capsys, cartan, code):
    # the truncated Verma modules are affine sl2's: a job that names sl2,
    # or names nothing, prints the same report; any other type or rank is
    # a domain error, and a malformed rank a config error
    _, sl2, _ = run_cli(capsys, *_SUGAWARA.split())
    got, out, err = run_cli(capsys, *(_SUGAWARA + " " + cartan).split())
    assert got == code
    if code == 0:
        assert out == sl2
    elif code == 2:
        assert out == "" and err.startswith("domain error:") and "sl2" in err
    else:
        assert out == "" and err.startswith("config error:")


# valid and invalid values of each choice key, and small sizes
_FUZZ_CHOICES = {
    "antispherical_param": ("q", "-1", "foo", ""),
    "multiplicities": ("kl", "parabolic:q", "parabolic:-1", "foo"),
    "energy_sign": ("appendix", "kernel", "foo"),
    "kind": ("w", "oprime", "verma", "simple", "dual_verma", "bogus"),
    "format": ("json", "tsv", "pretty", "xml"),
}
_FUZZ_SIZES = {"length_bound": 4, "trunc": 8, "depth": 2}


@st.composite
def _fuzzed_jobs(draw):
    """A job of every subcommand with some choice keys and sizes set,
    given as flags or in a config file (where the job's own flags win)."""
    argv = draw(st.sampled_from(_EVERY_SUBCOMMAND)).split()
    keys = {}
    for key, values in _FUZZ_CHOICES.items():
        if draw(st.booleans()):
            keys[key] = draw(st.sampled_from(values))
    for key, top in _FUZZ_SIZES.items():
        if draw(st.booleans()):
            keys[key] = draw(st.integers(0, top))
    return argv, keys, draw(st.booleans())


@settings(max_examples=150)
@given(_fuzzed_jobs())
def test_fuzzed_jobs_exit_with_a_documented_code(job):
    argv, keys, via_config = job
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if via_config:
            cfg = os.path.join(tmp, "job.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(keys, fh)
            argv = ["--config", cfg] + argv
        else:
            argv = argv + ["--%s=%s" % (key.replace("_", "-"), value)
                           for key, value in keys.items()]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, keys)
    assert "Traceback" not in err.getvalue()
    # a report is printed whole or not at all
    assert (out.getvalue() != "") == (code == 0), (argv, keys, err.getvalue())
