import hashlib
import json
import re

import pytest

from affchar.cli import _COMMANDS, emit_report, main, parse_tsv, _flatten


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_json(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A", "--rank", "2")
    assert code == 0
    data = json.loads(out)
    assert data["root_system"]["dim"] == 8
    assert data["conventions"]["antispherical_param"] == "q"


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


def test_exit_code_resource_exhaustion(capsys):
    code, _, err = run_cli(capsys, "kl", "--coxeter-matrix", "[[1,0],[0,1]]",
                           "--length-bound", "2", "--x", "", "--y", "0,1,0,1")
    assert code == 3


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


@pytest.mark.parametrize("matrix,pairs,sha256,bound", [
    ("[[1,3,3],[3,1,3],[3,3,1]]", 1969,
     "83a82fa2995a2be24528ab89e6b99844de61c69f6f76d791acfa8e769da2feb0", 7),
    ("[[1,6,2],[6,1,3],[2,3,1]]", 1313,
     "8e14e3174baf50c024c14dd912aed9409af9636803072d554b039f2d714fd38f", 7),
    ("[[1,4,2],[4,1,4],[2,4,1]]", 1603,
     "f1a9861c8d86784d6bc58dcd91665adebb3ad25d36111c0819ebd041e1903652", 7),
    ("[[1,4,0],[4,1,0],[0,0,1]]", 3685,
     "9c13881b059b73379799a9bc7a525702f50c3d8965824b7b3d9319625f554dd9", 6),
])
def test_kl_table_digest(capsys, matrix, pairs, sha256, bound):
    # exact affine A2, G2, C2 and hyperbolic tables, pinned byte for byte
    code, out, _ = run_cli(capsys, "kl", "--coxeter-matrix", matrix,
                           "--length-bound", str(bound))
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == pairs
    assert hashlib.sha256(data["table_tsv"].encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv,sha256", [
    ("vacuum-char --type B --rank 3 --n 2 --max-u 30 --max-q 120 "
     "--energy-sign kernel",
     "067fd7a585602b679b017c85d407a93ff6cb9bd0af5f8a2da92e940e37175055"),
    ("vacuum-char --type G --rank 2 --n 3 --max-u 30 --max-q 120 "
     "--energy-sign appendix",
     "eebbca32ec35a222e3fa8967b519bd3ed79e56da4f1837b5a08d5b76fc6aaff5"),
    ("ds-transform --type G --rank 2 --level=2/5 --weight=2,-1/3 --trunc 90",
     "f0d2013bda5adbc6f81af6668cb12924046f4f9e43b0fc9f3467ca86f3e6de0b"),
])
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


def test_antispherical_cli(capsys):
    code, out, _ = run_cli(capsys, "antispherical", "--coxeter-matrix",
                           "[[1,0],[0,1]]", "--length-bound", "6",
                           "--parabolic", "1", "--w", "0,1")
    assert code == 0
    data = json.loads(out)
    rows = {tuple(r["y"]): r["coeffs_in_v"] for r in data["basis"]}
    assert rows[(0, 1)] == [0, 1]
    assert rows[()] == [2, 1]   # v^2


@pytest.mark.parametrize("argv,sha256", [
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
])
def test_affine_report_digest(capsys, argv, sha256):
    # affine A2 and A3 blocks and A2 simple characters under the KL and
    # parabolic rules; B2, C2 and G2 blocks and simple characters, among
    # them a non-integral B2 weight with five blocks and a G2 weight whose
    # integral Weyl group has four generators; pinned byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv,sha256", [
    ("classify --type A --rank 2 --level=-5 --weight=0,0",
     "eb6ff29e43f1f479f3355822702318766d7e9122456f6497d696eb4be408a577"),
    ("classify --type B --rank 2 --level=-7/2 --weight=1/2,-1/2",
     "cae5a401b8eb3a56b24a6015fffa023a1a48d6b36b8cfde6508fdd8563dc825f"),
    ("classify --type G --rank 2 --level=-9/2 --weight=1/2,-1/3",
     "859b998db713216751a7d6776c814a4accaadac96c71a90eda632c48e9a65f1a"),
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
])
def test_lattice_report_digest(capsys, argv, sha256):
    # reports that print coroot or root data: A2 walls, non-integral B2
    # and G2 walls, an A2 orbit, B3/F4/E6 root data, w0-twisted
    # reductions and a C3 large-side Verma, pinned byte for byte
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
                         ["classify", "orbit", "blocks", "character-simple"])
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
