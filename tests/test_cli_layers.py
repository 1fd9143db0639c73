"""Each CLI subcommand loads only the layers it runs.

cli and emit bind the names they take from the heavier layers on first
use (PEP 562).  These tests run the CLI in fresh interpreters, since the
test process has every layer loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirac_double_barrier
from dirac_double_barrier import _lazy_attributes, verify

PACKAGE = "dirac_double_barrier"
SRC = str(Path(dirac_double_barrier.__file__).resolve().parents[1])
REF = ["--v-plus", "8", "--v-minus", "4", "--a-plus", "3", "--a-minus", "2.5"]

#: Runs cli.main on argv, then prints its exit code, the package's
#: modules in sys.modules and whether numpy was loaded.
LOADED = f"""\
import json, sys
from {PACKAGE}.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in sys.modules
                               if m.startswith("{PACKAGE}.")), "numpy" in sys.modules]))
"""


def _python(code: str, *args: str, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


BASE = {"cli", "core", "defaults", "errors"}


# every command that computes loads numpy; one that computes nothing
# (help, a usage error, an invalid potential) loads none
@pytest.mark.parametrize("argv, exit_code, loaded, numpy_loaded", [
    (["transmission", *REF, "--points", "50", "--svg", "curve.svg"], 0,
     BASE | {"emit", "transfer", "svg", "_printf"}, True),
    (["resonances", *REF, "--zone", "conventional", "--grid-points", "64"], 0,
     BASE | {"emit", "transfer", "resonance"}, True),
    (["sweep", *REF, "--param", "a-minus", "--from", "1", "--to", "2",
      "--frames", "2", "--points", "50"], 0,
     BASE | {"emit", "transfer", "_printf"}, True),
    (["sweep", *REF, "--param", "a-minus", "--from", "1", "--to", "2",
      "--frames", "2", "--points", "50", "--with-resonances"], 0,
     BASE | {"emit", "transfer", "_printf", "resonance"}, True),
    (["verify", *REF, "--samples", "100"], 0,
     BASE | {"transfer", "oracle", "verify"}, True),
    (["verify", "--help"], 0, BASE, False),
    (["verify", *REF, "--samples", "many"], 2, BASE, False),
    (["transmission", *REF, "--v-plus", "5"], 3, BASE, False),
], ids=["transmission", "resonances", "sweep", "sweep-with-resonances", "verify", "help",
        "usage-error", "config-error"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, exit_code, loaded, numpy_loaded):
    code, modules, numpy = json.loads(_python(LOADED, json.dumps(argv), cwd=tmp_path))
    assert code == exit_code
    assert set(modules) == loaded
    assert numpy is numpy_loaded


#: Runs cli.main on the command line's argv, then prints its exit code and
#: whether json was ever loaded; unlike LOADED, it imports no json itself.
JSON_LOADED = f"""\
import sys
from {PACKAGE}.cli import main
print(main(sys.argv[1:]), "json" in sys.modules)
"""


def test_a_curve_process_never_loads_json(tmp_path):
    argv = ["transmission", *REF, "--points", "50", "--svg", "curve.svg"]
    assert _python(JSON_LOADED, *argv, cwd=tmp_path) == "0 False"
    # a sweep writes its manifest, so it does load json
    argv = ["sweep", *REF, "--param", "a-minus", "--from", "1", "--to", "2",
            "--frames", "2", "--points", "50"]
    assert _python(JSON_LOADED, *argv, cwd=tmp_path) == "0 True"


def test_importtime_lists_the_lazily_loaded_layers(tmp_path):
    # -X importtime reports only imports made through __import__
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["verify", *REF, "--samples", "20"]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", LOADED, json.dumps(argv)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    timed = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {f"{PACKAGE}.verify", f"{PACKAGE}.oracle"} <= timed


#: Replaces three lazily bound names before their first call: two the way
#: perfbench/tracing.py does (look up, wrap, restore) and one set on the
#: module before its layer was ever loaded (then deleted).
REPLACED = f"""\
import json, sys
from {PACKAGE} import cli, emit
ref = json.loads(sys.argv[1])
seen = []

def spy(name, fn):
    def wrapped(*args, **kwargs):
        seen.append(name)
        return fn(*args, **kwargs)
    return wrapped

out = {{}}
for module, name, argv in (
        (cli, "run_verification", ["verify", *ref, "--samples", "50"]),
        (emit, "find_resonances", ["resonances", *ref, "--zone", "conventional",
                                   "--grid-points", "64"])):
    original = getattr(module, name)
    setattr(module, name, spy(name, original))
    code = cli.main(argv)
    setattr(module, name, original)
    out[name] = [code, seen.count(name), getattr(module, name) is original]

cli.render_curve_svg = lambda e, t2, cfg: "<svg/>"
code = cli.main(["transmission", *ref, "--points", "50", "--svg", "curve.svg"])
svg_loaded = "{PACKAGE}.svg" in sys.modules
del cli.render_curve_svg
from {PACKAGE}.svg import render_curve_svg
out["render_curve_svg"] = [code, open("curve.svg").read() == "<svg/>", svg_loaded,
                           cli.render_curve_svg is render_curve_svg]
print(json.dumps(out))
"""


def test_replacements_set_on_the_module_are_the_ones_that_run(tmp_path):
    out = json.loads(_python(REPLACED, json.dumps(REF), cwd=tmp_path))
    # exit code, calls through the replacement, original bound again
    assert out["run_verification"] == [0, 1, True]
    assert out["find_resonances"] == [0, 1, True]
    # exit code, the replacement's SVG written, svg never loaded, and
    # the name resolves to svg's function once the replacement is gone
    assert out["render_curve_svg"] == [0, True, False, True]


def test_first_use_binds_the_name_once():
    namespace = {"__name__": "probe", "__package__": PACKAGE}
    lookup = _lazy_attributes(namespace, {"verify": ("run_verification",)})
    assert lookup("run_verification") is verify.run_verification
    assert namespace["run_verification"] is verify.run_verification
    with pytest.raises(AttributeError, match="module 'probe' has no attribute 'nope'"):
        lookup("nope")


def test_first_use_keeps_an_existing_binding():
    replacement = object()
    namespace = {"__name__": "probe", "__package__": PACKAGE,
                 "run_verification": replacement}
    lookup = _lazy_attributes(namespace, {"verify": ("run_verification",)})
    assert lookup("run_verification") is replacement
    assert namespace["run_verification"] is replacement
