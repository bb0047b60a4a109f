"""Run configuration: typed flat key-value config files and validation.

Config files hold one ``[command]`` section per command with ``key = value``
lines; ``#`` starts an inline comment.  Unknown sections or keys are errors
(fail fast), as are values that do not parse at their declared type.
Command-line flags override file values.
"""

import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError

COMMANDS = ("tensors", "check-parallel", "scan", "sphsym",
            "scalar-curvature", "invariants")

# Upper bound of ``threads``, which nothing reads (runs are sequential); it
# stays so old command lines and config files keep their exit codes.
MAX_THREADS = 64
# Upper bound of ``dim``: jet algebras grow steeply with n (the klein
# tensors take 1.7 s at n = 6 and 4.7 s at n = 7).
MAX_DIM = 8


@dataclass
class RunConfig:
    command: str = ""
    metric: str = None
    dim: int = 3
    a: tuple = None
    phi: str = None        # profile expression (or 'berwald_classic')
    form: str = None       # 'catalogue' or comma-joined expressions
    c: float = 1.0
    cmu: tuple = None
    f: str = None          # radial factor expression f(r)
    P: str = None          # free P(r, s) expression
    samples: int = 100
    seed: int = 0
    radius: float = None
    tol: float = None
    scheme: str = "ad"
    out: str = None
    format: str = "json"
    threads: int = 1
    x_points: int = 5
    y_samples: int = 20
    rows: str = "both"
    sweep: str = None
    grid_nr: int = 20
    grid_ns: int = 20

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
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
        """Config as a plain dict for report embedding."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


_FLOATLIST = ("a", "cmu")
_FLOATS = ("c", "radius", "tol")
_INTS = ("dim", "samples", "seed", "threads", "x_points", "y_samples",
         "grid_nr", "grid_ns")

_VALID_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def coerce(key, raw):
    if key not in _VALID_KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    if raw is None:
        return None
    if isinstance(raw, (int, float, tuple, list)):
        return tuple(raw) if isinstance(raw, (tuple, list)) else raw
    raw = raw.strip()
    try:
        if key in _FLOATLIST:
            return tuple(float(p) for p in raw.split(",") if p.strip() != "")
        if key in _FLOATS:
            return float(raw)
        if key in _INTS:
            return int(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for key {key!r}") from None
    return raw


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
    cfg = RunConfig(command=command)
    for source in (file_values or {}), (overrides or {}):
        for k, v in source.items():
            if v is None:
                continue
            setattr(cfg, k, coerce(k, v))
    return cfg.validate()
