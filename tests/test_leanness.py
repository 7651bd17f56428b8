"""Every function of the package runs in some job, or is listed with why.

One child process runs a job of every subcommand, with every convention
choice, format and input route, under ``sys.setprofile``, set before
``affchar`` is imported so that import-time calls count too.  A function
that no job calls is code the program does not need, unless it is kept
for a stated reason.  The functions are the ``def`` statements of the
package's source, nested ones included; class bodies, lambdas and
comprehensions are not functions here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import _EVERY_SUBCOMMAND

SRC = Path(__file__).resolve().parents[1] / "src" / "affchar"

# the other values of every convention choice and format, a point query
# and a job read from a config file, beside one job of every subcommand
_MORE_JOBS = [
    "kl --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] --length-bound 6 "
    "--x 0 --y 0,1,2,0",
    "antispherical --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] "
    "--length-bound 4 --parabolic 1,2 --w 0,1,2 --antispherical-param -1",
    "character-simple --type B --rank 2 --level=-7 --weight=-2,-2 "
    "--w 2,0,1 --length-bound 5 --trunc 8 --multiplicities parabolic:q",
    "character-simple --type B --rank 2 --level=-7 --weight=-2,-2 "
    "--w 2,0,1 --length-bound 5 --trunc 8 --multiplicities parabolic:-1",
    "vacuum-char --type B --rank 2 --n 1 --max-u 6 --max-q 12 "
    "--energy-sign kernel",
    "--format tsv roots --type A --rank 2",
    "--format pretty roots --type A --rank 2",
]
_CONFIG = {"type": "A", "rank": 1, "level": "-3/2", "weight": ["1/2"],
           "trunc": 4}

# runs the jobs of argv[1], a JSON list of argv lists, and prints their
# exit codes and the (file, first line) of every package function called
_PROFILED = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
called = set()

def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(record)
from affchar import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
root = os.path.dirname(cli.__file__)
print(json.dumps([codes, sorted(
    {(os.path.basename(c.co_filename), c.co_firstlineno) for c in called
     if os.path.dirname(c.co_filename) == root})]))
"""

ORACLE = "oracle kept apart from the production path it checks"
HOOK = "benchmark hook: perfbench reads it"
TEST_API = "test API: only tests call it"
DUNDER = "value-type dunder"

UNCALLED = {
    "affine.LevelWeight.__eq__": DUNDER,
    "affine.LevelWeight.__hash__": DUNDER,
    "characters.CentralCharLabel.__eq__": DUNDER,
    "characters.CentralCharLabel.__hash__": DUNDER,
    "characters.CentralCharLabel.__repr__": DUNDER,
    "cli.__getattr__": HOOK,
    "hecke.BallElement.__repr__": DUNDER,
    "hecke.BruhatBall.__len__": DUNDER,
    "hecke.BruhatBall.__repr__": DUNDER,
    "hecke.BruhatBall.all_elements": HOOK,
    "hecke.BruhatBall.leq": HOOK,
    "hecke.ParabolicModule._solve": ORACLE,
    "hecke.ParabolicModule._solved_column": ORACLE,
    "hecke.ParabolicModule.act_gen": ORACLE,
    "hecke.ParabolicModule.bar_standard": ORACLE,
    "hecke.ParabolicModule.canonical_basis_via_solve": ORACLE,
    "hecke.ParabolicModule.minimal_elements": HOOK,
    "hecke._add": ORACLE,
    "hecke._mul": ORACLE,
    "hecke.inverse_multiplicity_matrix": HOOK,
    "hecke.kl_polynomial_via_solve": ORACLE,
    "qseries.QSeries.__eq__": DUNDER,
    "qseries.QSeries.__hash__": DUNDER,
    "qseries.QSeries.__neg__": DUNDER,
    "qseries.QSeries.__repr__": DUNDER,
    "qseries.QSeries.__sub__": DUNDER,
    "rootdata.Level.__eq__": DUNDER,
    "rootdata.Level.__hash__": DUNDER,
    "rootdata.RootSystem.__repr__": DUNDER,
    "rootdata.Value.__delattr__": DUNDER,
    "rootdata.Value.__repr__": DUNDER,
    "rootdata.Value.__setattr__": DUNDER,
    "sugawara.GradedModule.apply_word": TEST_API,
    "wstruct.BigradedCharacter.u_one_series": TEST_API,
    "wstruct.generator_windows": TEST_API,
    "wstruct.vanishing_violations": HOOK,
}


def _functions():
    """{(file name, first line): module.qualname} over the package's def
    statements; a decorated function's code starts at its first
    decorator."""
    out = {}

    def walk(node, name, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                out[name, line] = "%s.%s%s" % (name[:-3], prefix, child.name)
                walk(child, name, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, name, prefix + child.name + ".")
            else:
                walk(child, name, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return out


def test_every_function_is_called_or_listed(tmp_path):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(_CONFIG), encoding="utf-8")
    jobs = [argv.split() for argv in _EVERY_SUBCOMMAND + _MORE_JOBS]
    jobs.append(["--config", str(config), "character-verma"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _PROFILED, json.dumps(jobs)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes, called = json.loads(proc.stdout)
    assert codes == [0] * len(jobs)
    functions = _functions()
    uncalled = {functions[key] for key in functions.keys()
                - {tuple(key) for key in called}}
    assert sorted(uncalled - UNCALLED.keys()) == []
    assert sorted(UNCALLED.keys() - uncalled) == []
