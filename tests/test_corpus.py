"""Reports of a fixed set of commands against the committed corpus.

``tests/corpus/`` holds, per command, the normalised report, the printed
summary, the exit code and the sweep CSV, generated with the Python and
numpy versions recorded in its provenance (``tests/corpus/regenerate.py``).
With the same versions every file must match byte for byte.  Otherwise
verdicts, pass flags, strings and exit codes must match exactly and every
number must match within rel 1e-9 (relative to 1 + the larger magnitude,
so rounding noise on a zero residual counts as a match).
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent / "corpus"
_spec = importlib.util.spec_from_file_location("corpus_regenerate",
                                               CORPUS / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

INDEX = json.loads((CORPUS / "index.json").read_text(encoding="utf-8"))
EXACT = INDEX["provenance"] == regenerate.provenance()
REL_TOL = 1e-9


def _close(a, b):
    return abs(a - b) <= REL_TOL * (1.0 + max(abs(a), abs(b)))


def _diff_values(got, ref, where):
    """Paths at which two parsed values differ beyond the tolerance."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None:
        return [] if got is ref else [where]
    if isinstance(ref, (int, float)):
        ok = isinstance(got, (int, float)) and _close(got, ref)
        return [] if ok else [where]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return [where]
        return [d for k in ref for d in _diff_values(got[k], ref[k],
                                                     f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [where]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in _diff_values(g, r, f"{where}[{i}]")]
    return [] if got == ref else [where]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _diff_text(got, ref, where):
    """[where] unless the texts agree, numbers within the tolerance."""
    g, r = _NUMBER.split(got), _NUMBER.split(ref)
    gn, rn = _NUMBER.findall(got), _NUMBER.findall(ref)
    same = g == r and len(gn) == len(rn) and all(
        _close(float(a), float(b)) for a, b in zip(gn, rn))
    return [] if same else [where]


def compare(got, ref, exact):
    """Differences between two case outputs, each a dict with ``rc``,
    ``summary``, ``report`` and ``csv``; byte for byte when ``exact``."""
    if got["rc"] != ref["rc"]:
        return ["rc"]
    if exact:
        return [k for k in ("summary", "report", "csv") if got[k] != ref[k]]
    diffs = _diff_text(got["summary"], ref["summary"], "summary")
    diffs += _diff_values(json.loads(got["report"]),
                          json.loads(ref["report"]), "report")
    if (got["csv"] is None) != (ref["csv"] is None):
        diffs.append("csv")
    elif ref["csv"] is not None:
        diffs += _diff_text(got["csv"], ref["csv"], "csv")
    return diffs


def stored(name):
    case = INDEX["cases"][name]
    csv = CORPUS / f"{name}.csv"
    return {"rc": case["rc"], "summary": case["summary"],
            "report": (CORPUS / f"{name}.json").read_text(encoding="utf-8"),
            "csv": csv.read_text(encoding="utf-8") if csv.exists() else None}


def test_corpus_lists_every_case():
    assert list(INDEX["cases"]) == list(regenerate.CASES)
    for name, argv in regenerate.CASES.items():
        assert INDEX["cases"][name]["argv"] == argv


@pytest.mark.parametrize("name", list(regenerate.CASES))
def test_report_matches_corpus(name, tmp_path):
    rc, summary, report, csv = regenerate.run(name, tmp_path)
    got = {"rc": rc, "summary": summary, "report": report, "csv": csv}
    assert compare(got, stored(name), EXACT) == []


def _replace_coordinate(text, change):
    """The text with the first sample coordinate it reports replaced by
    ``change(value)``, written at 17 significant digits."""
    m = re.search(r'"x": \[\s*(-?[0-9.e+-]+)', text)
    value = float(m.group(1))
    new = change(value)
    assert new != value
    return text[:m.start(1)] + format(new, ".17g") + text[m.end(1):]


def _flip_last_bit(value):
    mantissa, exponent = value.hex().split("p")
    last = int(mantissa[-1], 16) ^ 1
    return float.fromhex(f"{mantissa[:-1]}{last:x}p{exponent}")


def test_a_flipped_last_bit_fails_the_byte_comparison():
    ref = stored("check-parallel")
    got = dict(ref, report=_replace_coordinate(ref["report"], _flip_last_bit))
    assert got["report"] != ref["report"]
    assert compare(got, ref, exact=True) == ["report"]
    assert compare(got, ref, exact=False) == []


def test_the_tolerant_comparison_keeps_verdicts_flags_and_rc_exact():
    ref = stored("check-parallel")
    for old, new in (('"ParallelWithinTol"', '"NotParallel"'),
                     ('"pass": true', '"pass": false')):
        got = dict(ref, report=ref["report"].replace(old, new, 1))
        assert compare(got, ref, exact=False) != []
    assert compare(dict(ref, rc=1), ref, exact=False) == ["rc"]
    got = dict(ref, report=_replace_coordinate(ref["report"],
                                               lambda v: v * (1.0 + 1e-6)))
    assert compare(got, ref, exact=False) != []
    sweep = stored("sphsym-sweep")
    got = dict(sweep, csv=sweep["csv"].replace("\n0.", "\n1.", 1))
    assert compare(got, sweep, exact=False) == ["csv"]
