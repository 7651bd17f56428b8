"""Command-line front end.

One job per invocation: parse a declarative JSON config plus flag
overrides, dispatch to the library, emit a deterministic report.  Every
numeric in the output is an exact fraction string or an integer; all
convention flags (parabolic parameter, energy sign, w0 twist, spectral
flow sign) are echoed in the report header so golden files are
self-describing.

Exit codes: 0 success, 1 malformed config or unknown subcommand,
2 domain rejection (e.g. critical level), 3 resource or ball exhaustion.

A job loads only the layers its subcommand runs: every layer is imported
inside the handlers and ``Job`` methods that use it, so only ``kl``,
``antispherical``, ``blocks`` and ``character-simple`` jobs load
``hecke`` (and a job given ``antispherical_param``, whose values
``hecke`` lists).  The module ``__getattr__`` below resolves
``cli.build_ball`` and ``cli.kl_table_tsv`` from ``hecke`` when they
are read, for a caller that reads them as attributes of this module.
"""

import argparse
import importlib
import json
import re
import sys

from .errors import DomainError, BallExhausted, TruncationOverflow

_DECIMAL_INT = re.compile(r"\s*[+-]?([0-9]+)\s*")

_KNOWN_KEYS = {
    "type", "rank", "level", "weight", "trunc", "length_bound", "depth",
    "f0_bound", "lam_check", "modes", "w", "x", "y", "coxeter_matrix",
    "parabolic", "antispherical_param", "multiplicities", "energy_sign",
    "w0_twist", "flip_flow_sign", "kind", "n", "h", "max_u", "max_q",
    "format",
}

_FORMATS = ("json", "tsv", "pretty")


class ConfigError(Exception):
    pass


def __getattr__(name):
    # The traced kl handler of perfbench/jobproc.py is the only reader of
    # these two names; counters inside the program (ROADMAP item 1's
    # affchar.stats) would retire it.
    if name in ("build_ball", "kl_table_tsv"):
        from . import hecke
        return getattr(hecke, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: undecodable bytes, malformed JSON, or a number with
        # more digits than int() converts
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    # a top-level null means the key is absent, whatever the key
    return {key: value for key, value in data.items() if value is not None}


def _fraction(value, name):
    # imported here, its one user, so kl and antispherical jobs never
    # load fractions (nor decimal, which it imports)
    from fractions import Fraction
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError("field %r is not an exact rational: %r" % (name, value))


def _weight(value, name, rank):
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)):
        raise ConfigError("field %r must be a list of rationals" % name)
    if len(value) != rank:
        raise ConfigError("%s has %d coordinates, rank is %d"
                          % (name, len(value), rank))
    return tuple(_fraction(v, name) for v in value)


def _int(value):
    """A JSON integer (not a boolean) or a decimal integer string as an
    int; None for anything else, so a fraction is never truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    match = _DECIMAL_INT.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        return None
    # int() refuses more digits than the interpreter's limit (4,300 by
    # default since Python 3.11; 0 is no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(match.group(1)) > limit:
        raise ConfigError("integer of %d digits exceeds the limit of %d "
                          "digits" % (len(match.group(1)), limit))
    return int(value)


def _ints(value, name, what):
    if value in (None, ""):
        return ()
    if isinstance(value, str):
        value = [c for c in value.split(",") if c != ""]
    if isinstance(value, (list, tuple)):
        out = tuple(_int(c) for c in value)
        if None not in out:
            return out
    raise ConfigError("field %r must be %s" % (name, what))


def _word(value, name="w"):
    return _ints(value, name, "a word (list of indices)")


def _positive_int(value, name):
    n = _int(value)
    if n is None:
        raise ConfigError("field %r must be an integer" % name)
    if n < 0:
        raise ConfigError("field %r must be nonnegative" % name)
    return n


def _bool(value, name):
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "1", "yes"):
        return True
    if isinstance(value, str) and value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError("field %r must be a boolean" % name)


def _one_of(layer, name):
    """The check of a field against the values ``layer`` lists as
    ``name``; the layer is loaded only when the field is given."""
    def check(value, key):
        allowed = getattr(importlib.import_module("." + layer, __package__),
                          name)
        if str(value) not in allowed:
            raise ConfigError("field %r must be one of %s, not %r"
                              % (key, ", ".join(allowed), value))
        return str(value)
    return check


def _format(value, name):
    value = str(value)
    if value not in _FORMATS:
        raise ConfigError("unknown format %r" % (value,))
    return value


# convention fields: (default, check of a given value).  Every report
# echoes them, so ``Job`` checks them before any subcommand runs.
_CONVENTIONS = {
    "antispherical_param": ("q", _one_of("hecke", "PARABOLIC_PARAMS")),
    "multiplicities": ("kl", _one_of("characters", "MULTIPLICITY_RULES")),
    "energy_sign": ("appendix", _one_of("wstruct", "CONVENTIONS")),
    "format": ("json", _format),
    "w0_twist": (False, _bool),
    "flip_flow_sign": (False, _bool),
}


class Job:
    """Validated configuration for one invocation.  Each convention field
    of ``_CONVENTIONS`` is an attribute holding its checked value."""

    def __init__(self, args):
        cfg = _load_config(args.config) if args.config else {}
        for key in _KNOWN_KEYS:
            flag = getattr(args, key, None)
            if flag is not None:
                cfg[key] = flag
        self.cfg = cfg
        for key, (default, check) in _CONVENTIONS.items():
            value = self.get(key)
            setattr(self, key, default if value is None else check(value, key))

    def get(self, key, default=None):
        return self.cfg.get(key, default)

    def require(self, key):
        if key not in self.cfg:
            raise ConfigError("missing required field %r" % key)
        return self.cfg[key]

    def root_system(self):
        from .rootdata import build_root_system
        return build_root_system(str(self.require("type")),
                                 _positive_int(self.require("rank"), "rank"))

    def level(self):
        from .rootdata import Level
        return Level(_fraction(self.require("level"), "level"))

    def level_weight(self):
        from .affine import LevelWeight
        rs = self.root_system()
        lam = _weight(self.require("weight"), "weight", rs.rank)
        return LevelWeight(rs, lam, self.level())

    def conventions(self):
        return {
            "antispherical_param": self.antispherical_param,
            "multiplicity_rule": self.multiplicities,
            "energy_sign": self.energy_sign,
            "w0_twist": self.w0_twist,
            "spectral_flow_sign": ("arakawa" if self.flip_flow_sign
                                   else "adolescent"),
        }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a JSON-ready dict
# ---------------------------------------------------------------------------

def _cmd_roots(job):
    return {"root_system": job.root_system().to_json_dict()}


def _cmd_classify(job):
    from .affine import classify_weight
    lw = job.level_weight()
    return {"classification": classify_weight(lw).to_json_dict()}


def _cmd_orbit(job):
    from .affine import orbit_and_representative
    lw = job.level_weight()
    bound = _positive_int(job.get("length_bound", 8), "length_bound")
    res = orbit_and_representative(lw, bound)
    out = res.to_json_dict()
    out["points"] = [[str(a) for a in p.lam] for p in res.points]
    return {"orbit": out}


def _cmd_blocks(job):
    from .affine import block_decomposition
    lw = job.level_weight()
    bound = _positive_int(job.get("length_bound", 6), "length_bound")
    blocks = block_decomposition(lw, bound)
    return {"length_bound": bound,
            "block_count": len(blocks),
            "blocks": [b.to_json_dict() for b in blocks]}


def _coxeter_from_job(job):
    mat = job.require("coxeter_matrix")
    if isinstance(mat, str):
        try:
            mat = json.loads(mat)
        except ValueError as exc:   # malformed, or an overlong number
            raise ConfigError("coxeter_matrix is not valid JSON: %s" % exc)
    if not (isinstance(mat, list) and all(isinstance(row, list) and all(
            e is None or type(e) is int for e in row) for row in mat)):
        raise ConfigError("coxeter_matrix must be a list of rows of integers "
                          "or null")
    return mat


def _matrix_and_bound(job):
    """The Coxeter matrix and length bound of a ball job, checked in the
    order every ball job reports them: malformed matrix or bound (exit 1)
    before an invalid matrix (exit 2) before anything else."""
    from .hecke import validate_coxeter_matrix
    matrix = _coxeter_from_job(job)
    bound = _positive_int(job.get("length_bound", 8), "length_bound")
    validate_coxeter_matrix(matrix)
    return matrix, bound


def _cmd_kl(job):
    from .hecke import (build_ball, kl_polynomial, kl_table_pairs,
                        kl_table_tsv, query_ball)
    matrix, bound = _matrix_and_bound(job)
    if job.get("x") is None and job.get("y") is None:
        # full table dump of the ball: one line per pair after the header
        ball = build_ball(matrix, bound)
        table = kl_table_tsv(ball, kl_table_pairs(ball))
        return {"table_tsv": table, "pairs": table.count("\n") - 1}
    # a point query needs only the ball of its longer word
    xw, yw = _word(job.get("x"), "x"), _word(job.get("y"), "y")
    ball = query_ball(matrix, bound, (xw, yw))
    x = ball.element_by_word(xw)
    y = ball.element_by_word(yw)
    poly = kl_polynomial(ball, x, y)
    return {"x": list(x.word), "y": list(y.word),
            "polynomial_in_q": poly.coeff_list(),
            "convention": "P_{x,y}(q), q = v^-2, (Hs - v^-1)(Hs + v) = 0"}


def _cmd_antispherical(job):
    from .hecke import ParabolicModule, query_ball
    matrix, bound = _matrix_and_bound(job)
    parabolic = _word(job.require("parabolic"), "parabolic")
    w = _word(job.get("w"), "w")
    ball = query_ball(matrix, bound, (w,))
    mod = ParabolicModule(ball, parabolic, job.antispherical_param)
    basis = mod.canonical_basis(ball.element_by_word(w))
    # ids are ShortLex ranks, so id order is (length, word) order
    rows = [{"y": list(ball.elements[k].word),
             "coeffs_in_v": basis[k].coeff_list()} for k in sorted(basis)]
    return {"w": list(w), "parabolic": list(parabolic), "basis": rows}


def _cmd_character_verma(job):
    from . import characters as chars
    lw = job.level_weight()
    trunc = _positive_int(job.get("trunc", 20), "trunc")
    chi = chars.hc_project(lw.rs, lw.lam, lw.level)
    side = str(job.get("kind", "w"))
    if side not in ("w", "oprime"):
        raise ConfigError("kind must be 'w' or 'oprime'")
    if side == "w":
        series = chars.ch_verma_W(chi, trunc)
        tag = "q^{E_M} eta^{-rank}"
    else:
        series = chars.ch_verma_Oprime(chi, trunc)
        tag = "q^{E_Delta} eta^{-dim}"
    return {"label": {"kind": "verma", "side": side, "chi": chi.to_json_dict()},
            "series": series.to_json_dict(),
            "provenance": tag}


def _cmd_character_simple(job):
    from . import characters as chars
    lw = job.level_weight()
    trunc = _positive_int(job.get("trunc", 20), "trunc")
    bound = _positive_int(job.get("length_bound", 8), "length_bound")
    res = chars.ch_simple_W(lw, _word(job.get("w"), "w"), trunc,
                            length_bound=bound,
                            multiplicities=job.multiplicities)
    return {"simple_character": res.to_json_dict()}


def _cmd_ds_transform(job):
    from . import characters as chars
    from .qseries import equal_to_order
    lw = job.level_weight()
    trunc = _positive_int(job.get("trunc", 20), "trunc")
    chi = chars.hc_project(lw.rs, lw.lam, lw.level)
    src = chars.ch_verma_Oprime(chi, trunc)
    out = chars.ds_transform(src, lw.rs)
    target = chars.ch_verma_W(chi, trunc)
    return {"chi": chi.to_json_dict(),
            "input_series": src.to_json_dict(),
            "output_series": out.to_json_dict(),
            "matches_w_verma": equal_to_order(out, target, trunc)}


def _cmd_psi_s(job):
    from . import characters as chars
    kind = str(job.get("kind", "verma"))
    if kind not in chars.MODULE_KINDS:
        raise ConfigError("field 'kind' must be one of %s, not %r"
                          % (", ".join(chars.MODULE_KINDS), kind))
    rs = job.root_system()
    level = job.level()
    lam = _weight(job.require("weight"), "weight", rs.rank)
    chi = chars.psi_s(rs, kind, lam, level, w0_twist=job.w0_twist)
    if chi is None:
        return {"input_kind": kind, "image": "zero"}
    return {"input_kind": kind,
            "image": {"kind": kind, "side": "w_algebra",
                      "chi": chi.to_json_dict()}}


def _cmd_sugawara_check(job):
    from . import sugawara as sug
    k = _fraction(job.require("level"), "level")
    a = _weight(job.require("weight"), "weight", 1)[0]
    depth = _positive_int(job.get("depth", 5), "depth")
    f0 = _positive_int(job.get("f0_bound", 2), "f0_bound")
    x = _weight(job.get("lam_check", ["1"]), "lam_check", 1)[0]
    modes = _ints(job.get("modes", list(range(-2, 3))), "modes",
                  "a list of integers")
    if not modes:
        # a job that checks no mode must not report a pass
        raise ConfigError("field 'modes' must name at least one mode")
    # the truncated Verma modules are affine sl2's: a type or rank given
    # must name it, and a job that gives neither is sl2
    if job.get("type") is not None or job.get("rank") is not None:
        cartan = (str(job.get("type", "A")),
                  _positive_int(job.get("rank", 1), "rank"))
        if cartan != ("A", 1):
            raise DomainError("sugawara-check runs on sl2 (type A, rank 1) "
                              "only, not type %s rank %d" % cartan)
    module = sug.build_truncated_verma(a, k, depth, f0)
    rows = []
    all_passed = True
    for n in modes:
        rep = sug.check_dss(module, x, n, flip_sign=job.flip_flow_sign)
        rows.append(rep.to_json_dict())
        all_passed = all_passed and rep.passed
    return {"basis_size": len(module.basis),
            "reports": rows,
            "all_passed": all_passed}


def _cmd_jumps(job):
    from .wstruct import ideal_jump
    n = _fraction(job.require("n"), "n")
    h = job.get("h")
    h = (job.root_system().coxeter_number if h is None
         else _positive_int(h, "h"))
    return {"n": str(n), "h": h, "jump": str(ideal_jump(n, h))}


def _cmd_vacuum_char(job):
    from .wstruct import vacuum_graded_character
    rs = job.root_system()
    n = _positive_int(job.get("n", 0), "n")
    max_u = _positive_int(job.get("max_u", 6), "max_u")
    max_q = _positive_int(job.get("max_q", 12), "max_q")
    ch = vacuum_graded_character(rs, n, max_u, max_q,
                                 convention=job.energy_sign)
    return {"vacuum_character": ch.to_json_dict()}


_COMMANDS = {
    "roots": _cmd_roots,
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "blocks": _cmd_blocks,
    "kl": _cmd_kl,
    "antispherical": _cmd_antispherical,
    "character-verma": _cmd_character_verma,
    "character-simple": _cmd_character_simple,
    "ds-transform": _cmd_ds_transform,
    "psi-s": _cmd_psi_s,
    "sugawara-check": _cmd_sugawara_check,
    "jumps": _cmd_jumps,
    "vacuum-char": _cmd_vacuum_char,
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _escape(value):
    return (str(value).replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\n", "\\n"))


def emit_report(result, fmt="json"):
    """The report as text, in a format ``Job`` has checked.  A tsv or
    pretty value is kept on its line: each backslash, tab and newline in
    it is written as \\\\, \\t or \\n."""
    if fmt == "json":
        return json.dumps(result, sort_keys=True, separators=(",", ": "),
                          indent=1) + "\n"
    line = "%s\t%s\n" if fmt == "tsv" else "%-48s %s\n"
    return "".join(line % (key, _escape(value))
                   for key, value in sorted(_flatten(result)))


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], "%s.%s" % (prefix, key) if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            yield (prefix, ",".join(str(v) for v in value))
        else:
            for i, v in enumerate(value):
                yield from _flatten(v, "%s[%d]" % (prefix, i))
    else:
        yield (prefix, value)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="affchar",
        allow_abbrev=False,
        description="exact affine Weyl / Kazhdan-Lusztig / W-algebra "
                    "character computations")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    for key in sorted(_KNOWN_KEYS):
        parser.add_argument("--%s" % key.replace("_", "-"), dest=key,
                            default=None)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; the contract is 1
        return 0 if exc.code == 0 else 1
    try:
        if unknown:
            raise ConfigError("unknown arguments: %s" % " ".join(unknown))
        job = Job(args)
        result = _COMMANDS[args.subcommand](job)
        result["conventions"] = job.conventions()
        sys.stdout.write(emit_report(result, job.format))
        return 0
    except ConfigError as exc:
        sys.stderr.write("config error: %s\n" % exc)
        return 1
    except DomainError as exc:
        sys.stderr.write("domain error: %s\n" % exc)
        return 2
    except (BallExhausted, TruncationOverflow) as exc:
        sys.stderr.write("resource exhausted: %s\n" % exc)
        return 3
    except MemoryError:
        # reported below, once the handler has dropped the traceback and
        # with it the job's partial data
        pass
    sys.stderr.write("resource exhausted: out of memory\n")
    return 3


if __name__ == "__main__":
    sys.exit(main())
