"""Which affchar layers a process loads.

Each case runs in a fresh interpreter, since this test process has every
layer loaded already.  A job must load only the layers its subcommand
runs, so an eager import added back to the package or to the CLI fails
here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affchar

SRC = str(Path(affchar.__file__).resolve().parent.parent)

# standard-library modules that a lean job should not load
_WATCHED = ("dataclasses", "decimal", "fractions")

# prints the loaded affchar modules, and which watched modules are loaded,
# as the last line of standard output
_PROBE = """
import json, sys
%%s
print(json.dumps([sorted(m for m in sys.modules
                         if m == "affchar" or m.startswith("affchar.")),
                  [m for m in %r if m in sys.modules]]))
""" % (_WATCHED,)

_RUN_CLI = "from affchar import cli\ncli.main(%r)"


def _loaded(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE % code], env=env,
                          capture_output=True, text=True, check=True)
    modules, watched = json.loads(proc.stdout.splitlines()[-1])
    return {m.partition(".")[2] or "affchar" for m in modules}, set(watched)


def test_importing_the_package_loads_no_layer():
    assert _loaded("import affchar")[0] == {"affchar", "errors"}


@pytest.mark.parametrize("argv", [
    "kl --coxeter-matrix [[1,3],[3,1]] --length-bound 3",
    "kl --coxeter-matrix [[1,4],[4,1]] --length-bound 4 --x 0 --y 0,1",
    "antispherical --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] "
    "--length-bound 4 --parabolic 1,2 --w 0,1,2 --antispherical-param -1",
])
def test_kl_loads_only_hecke(argv):
    # kl and antispherical jobs: every coefficient is an int, so no
    # Fraction is built and neither fractions nor decimal is loaded
    modules, watched = _loaded(_RUN_CLI % argv.split())
    assert modules == {"affchar", "cli", "errors", "hecke"}
    assert not watched


@pytest.mark.parametrize("argv", [
    "sugawara-check --type A --rank 1 --level 1 --weight 0 --depth 2 "
    "--f0-bound 1 --modes 0",
    "vacuum-char --type A --rank 2 --max-u 2 --max-q 4",
])
def test_sugawara_and_vacuum_jobs_load_no_character_layer(argv):
    modules, _ = _loaded(_RUN_CLI % argv.split())
    assert not modules & {"affine", "characters"}


def test_sugawara_check_loads_no_root_data():
    # the Sugawara oracle is sl2's, with its constants in closed form
    argv = ("sugawara-check --level=-1/2 --weight 1 --depth 2 --f0-bound 1 "
            "--modes 0 --lam-check 2")
    modules, watched = _loaded(_RUN_CLI % argv.split())
    assert modules == {"affchar", "cli", "errors", "sugawara"}
    assert "dataclasses" not in watched


_BASE = {"affchar", "cli", "errors"}
_WEIGHTS = _BASE | {"affine", "rootdata"}
_CHARACTERS = _WEIGHTS | {"characters", "qseries"}

# one job of every subcommand and the exact layers it loads: only the jobs
# that build a Coxeter ball load hecke
_MODULES_BY_SUBCOMMAND = [
    ("roots --type G --rank 2", _BASE | {"rootdata"}),
    ("classify --type B --rank 2 --level=-7/2 --weight=1/2,-1/2", _WEIGHTS),
    ("orbit --type A --rank 2 --level=-5/2 --weight=1/3,-1/2 "
     "--length-bound 3", _WEIGHTS),
    ("blocks --type G --rank 2 --level=-9 --weight=-5/2,-3 --length-bound 5",
     _WEIGHTS | {"hecke"}),
    ("kl --coxeter-matrix [[1,4],[4,1]] --length-bound 5", _BASE | {"hecke"}),
    ("antispherical --coxeter-matrix [[1,3,3],[3,1,3],[3,3,1]] "
     "--length-bound 4 --parabolic 1,2 --w 0,1,2", _BASE | {"hecke"}),
    ("character-verma --type A --rank 1 --level=-3/2 --weight 1/2 --trunc 8",
     _CHARACTERS),
    ("character-simple --type B --rank 2 --level=-7 --weight=-2,-2 "
     "--w 2,0,1 --length-bound 5 --trunc 8", _CHARACTERS | {"hecke"}),
    ("ds-transform --type C --rank 3 --level=1/3 --weight=1,1/2,-1 "
     "--trunc 6", _CHARACTERS),
    ("psi-s --type G --rank 2 --level=-9/2 --weight=1,-3 --kind simple "
     "--w0-twist true", _CHARACTERS),
    ("sugawara-check --level=-1/2 --weight 1/3 --depth 2 --f0-bound 1 "
     "--modes=-1,0,1", _BASE | {"sugawara"}),
    ("jumps --type E --rank 6 --n 5/12", _BASE | {"rootdata", "wstruct"}),
    ("vacuum-char --type B --rank 2 --n 1 --max-u 6 --max-q 12",
     _BASE | {"rootdata", "wstruct"}),
]


def test_the_table_covers_every_subcommand():
    from affchar import cli
    assert sorted(argv.split()[0] for argv, _ in _MODULES_BY_SUBCOMMAND) == \
        sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv,modules", _MODULES_BY_SUBCOMMAND,
                         ids=[argv.split()[0]
                              for argv, _ in _MODULES_BY_SUBCOMMAND])
def test_each_subcommand_loads_exactly_its_layers(argv, modules):
    assert _loaded(_RUN_CLI % argv.split())[0] == modules
