"""The library's public surface is what the commands run.

A function in a module's ``__all__``, or a public method of a class in
one, must be reached by ``cli.main`` over the corpus argvs and a few
paths the corpus does not take (a form given as expressions, CSV output,
a config file, an unknown metric, a profile through every expression
function), unless README.md's "Library use" section names it, with the
claim it checks or the tool that reads it.  The trace runs in a fresh
interpreter, so caches filled by other tests hide no call.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the CLI paths the corpus argvs do not take; "{config}" is a config file
CLI_ONLY = [
    ["check-parallel", "--metric", "euclidean", "--form", "x1,x2,x3",
     "--samples", "10"],
    ["scalar-curvature", "--metric", "klein", "--samples", "10",
     "--format", "csv"],
    ["--config", "{config}", "scan"],
    ["tensors", "--metric", "nope"],
    ["tensors", "--phi", "2+cos(s)+log(1+r^2)+abs(s)*r", "--dim", "2",
     "--samples", "10"],
]
CONFIG = """\
[scan]
metric = general_berwald
x_points = 2
y_samples = 5
dim = 2
"""


def unreached(workdir):
    """The public names that ``cli.main`` does not reach over the corpus
    argvs and CLI_ONLY, with every file written under ``workdir``."""
    import contextlib
    import importlib
    import inspect
    import io
    import pkgutil

    import finslercheck
    from finslercheck import cli
    import test_corpus

    surface = {}
    for info in pkgutil.walk_packages(finslercheck.__path__, "finslercheck."):
        mod = importlib.import_module(info.name)
        short = info.name.removeprefix("finslercheck.")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                surface[obj.__code__] = f"{short}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = (member.fget if isinstance(member, property)
                          else getattr(member, "__func__", member))
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        surface[fn.__code__] = f"{short}.{name}.{attr}"

    workdir = Path(workdir)
    config = workdir / "run.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    argvs = [[str(config) if a == "{config}" else a for a in argv]
             for argv in CLI_ONLY]
    for name in test_corpus.regenerate.CASES:
        argvs.append([str(workdir / f"{name}.csv") if a == "{sweep}" else a
                      for a in test_corpus.regenerate.CASES[name]])
    reached = set()

    def tracer(frame, event, arg):
        reached.add(frame.f_code)  # called on "call" only; no line tracing

    sink = io.StringIO()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for i, argv in enumerate(argvs):
                cli.main(argv + ["--seed", "0",
                                 "--out", str(workdir / f"{i}.out")])
    finally:
        sys.settrace(None)
    return sorted(name for code, name in surface.items()
                  if code not in reached)


def library_use():
    """The qualified names that README.md's "Library use" section names
    in its prose (code blocks left out)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"^```.*?^```", "", section, flags=re.M | re.S)
    return set(re.findall(r"`([a-z_]+(?:\.[A-Za-z_]\w*)+)`", prose))


def test_library_use_names_resolve():
    import importlib

    for name in library_use():
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"finslercheck.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_every_public_function_is_reached_or_named(tmp_path):
    code = ("import json, sys; import test_surface; "
            "print(json.dumps(test_surface.unreached(sys.argv[1])))")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    missing = set(json.loads(done.stdout)) - library_use()
    assert not missing, (
        f"public but reached by no command, and not named under README "
        f"'Library use': {sorted(missing)}")
