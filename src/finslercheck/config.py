"""Run configuration: typed flat key-value config files and validation.

``KEYS`` maps each command to the keys it reads; a report echoes those.
``ACCEPTED`` adds ``scan``'s inert ``threads``: it decides which flags a
command's parser lists and which keys a flag or a config file may set
(any other key is a ConfigError, exit code 2).

Config files hold one ``[command]`` section per command with ``key = value``
lines; ``#`` starts an inline comment.  Unknown sections or keys are errors
(fail fast), as are values that do not parse at their declared type.
Command-line flags override file values; ``build_config`` rejects a key,
from either, that its command does not read.
"""

import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError

# the keys each command reads: its runner in cli.py, and ``out`` and
# ``format``, which cli.main reads for every command (tests/test_interface.py
# walks cli.py and holds each row to the runner's reads)
_MAIN = ("out", "format")
_METRIC = ("metric", "dim", "a", "phi", "radius")
_SAMPLED = _METRIC + ("samples", "scheme", "seed") + _MAIN
KEYS = {
    "tensors": _SAMPLED,
    "check-parallel": _SAMPLED + ("form", "c", "cmu", "tol"),
    "scan": _METRIC + ("scheme", "seed", "x_points", "y_samples",
                       "rows") + _MAIN,
    "sphsym": ("dim", "phi", "f", "P", "radius", "samples", "seed", "tol",
               "sweep", "grid_nr", "grid_ns") + _MAIN,
    "scalar-curvature": _SAMPLED + ("tol",),
    "invariants": _SAMPLED,
}
COMMANDS = tuple(KEYS)
# the keys a flag or a config file may set: each command's, and for
# ``scan`` also ``threads``, which nothing reads and no report echoes,
# while perfbench's scan workload passes ``--threads 2``
ACCEPTED = dict(KEYS, scan=KEYS["scan"] + ("threads",))

# Upper bound of ``threads``, kept so old command lines keep their exit codes
MAX_THREADS = 64
# Upper bound of ``dim``: jet algebras grow steeply with n (the klein
# tensors take 1.7 s at n = 6 and 4.7 s at n = 7).
MAX_DIM = 8


def _key(default, help):
    """A RunConfig field: a key's default and its flag's help."""
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    command: str = ""
    metric: str = _key(None, "catalogue metric name")
    dim: int = _key(3, f"dimension n, 2 to {MAX_DIM}")
    a: tuple = _key(None, "comma-separated parameter vector a")
    phi: str = _key(None, "profile phi(r,s) expression or 'berwald_classic'")
    form: str = _key(None, "'catalogue' or comma-joined b_i expressions in "
                           "x1..xn")
    c: float = _key(1.0, "family parameter c")
    cmu: tuple = _key(None, "family parameters c_mu (comma-separated)")
    f: str = _key(None, "radial factor f(r) expression")
    P: str = _key(None, "free P(r,s) expression")
    samples: int = _key(100, "sample count (>= 10)")
    seed: int = _key(0, "PRNG seed")
    radius: float = _key(None, "sampling radius for |x|")
    tol: float = _key(None, "tolerance override")
    scheme: str = _key("ad", "ad (default) or fd")
    out: str = _key(None, "report output path")
    format: str = _key("json", "json (default) or csv")
    threads: int = _key(1, f"no effect; accepted (1 to {MAX_THREADS}) so "
                           "old command lines keep their exit code")
    x_points: int = _key(5, "number of base points")
    y_samples: int = _key(20, "fiber samples per base point")
    rows: str = _key("both", "both | berwald | curvature")
    sweep: str = _key(None, "write the (r,s) grid to this CSV")
    grid_nr: int = _key(20, "grid points in r")
    grid_ns: int = _key(20, "grid points in s")

    def validate(self):
        if not 2 <= self.dim <= MAX_DIM:
            raise ConfigError(f"dim must be between 2 and {MAX_DIM}")
        if self.samples < 10:
            raise ConfigError("samples must be >= 10")
        if self.scheme not in ("ad", "fd"):
            raise ConfigError("scheme must be 'ad' or 'fd'")
        if self.format not in ("json", "csv"):
            raise ConfigError("format must be 'json' or 'csv'")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ConfigError(f"threads must be between 1 and {MAX_THREADS}")
        if self.rows not in ("both", "berwald", "curvature"):
            raise ConfigError("rows must be both, berwald or curvature")
        if self.radius is not None and not (math.isfinite(self.radius)
                                            and self.radius > 0):
            raise ConfigError("radius must be finite and positive")
        if self.x_points < 1:
            raise ConfigError("x_points must be >= 1")
        if self.y_samples < self.dim + 2:
            raise ConfigError(f"y_samples must be >= dim + 2 = {self.dim + 2}")
        if self.grid_nr < 1 or self.grid_ns < 1:
            raise ConfigError("grid_nr and grid_ns must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.tol is not None and not (math.isfinite(self.tol)
                                         and self.tol > 0):
            raise ConfigError("tol must be finite and positive")
        for key in ("a", "c", "cmu"):
            value = getattr(self, key)
            values = value if isinstance(value, tuple) else (value,)
            if not all(v is None or math.isfinite(v) for v in values):
                raise ConfigError(f"{key} must be finite")
        return self

    def check_output_dirs(self):
        """Raise ConfigError unless each output path is a non-directory in
        an existing directory.  Kept out of :meth:`validate`: a config may
        be built before its output directory is made (perfbench does so),
        while a run must fail before computing, not at its final write."""
        for key in ("out", "sweep"):
            path = getattr(self, key)
            if path is not None and os.path.isdir(path):
                raise ConfigError(f"{key}: {path!r} is a directory")
            if path is not None and not os.path.isdir(
                    os.path.dirname(os.path.abspath(path))):
                raise ConfigError(f"{key}: directory of {path!r} does not "
                                  "exist")

    def echo(self):
        """The command and the keys it reads, in field order, as a plain
        dict for report embedding."""
        out = {}
        for f in fields(self):
            if f.name == "command" or f.name in KEYS[self.command]:
                v = getattr(self, f.name)
                out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


_TYPES = {f.name: f.type for f in fields(RunConfig)[1:]}


def coerce(key, raw):
    kind = _TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    if isinstance(raw, (int, float, tuple, list)):
        return tuple(raw) if isinstance(raw, (tuple, list)) else raw
    raw = raw.strip()
    try:
        if kind is tuple:
            return tuple(float(p) for p in raw.split(",") if p.strip() != "")
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None


def parse_config_file(path):
    """{section: {key: typed value}} from a flat key-value file."""
    sections = {}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            name = body[1:-1].strip()
            if name not in COMMANDS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(
                f"{path}:{lineno}: key outside of a [command] section")
        key, raw = (p.strip() for p in body.split("=", 1))
        current[key] = coerce(key, raw)
    return sections


def build_config(command, file_values=None, overrides=None):
    if command not in KEYS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = RunConfig(command=command)
    for source in (file_values or {}), (overrides or {}):
        for k, v in source.items():
            if v is None:
                continue
            if k not in ACCEPTED[command]:
                raise ConfigError(f"key {k!r} does not apply to {command}")
            setattr(cfg, k, coerce(k, v))
    return cfg.validate()
