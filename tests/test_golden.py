"""Golden reports: CLI and library output compared byte for byte.

Each case produces one JSON report and compares its bytes with the file of
the same name under tests/golden/.  The files pin every float, verdict and
key of the reports, so a refactor that must not change results can be
checked against them.  After a deliberate change to report content,
rewrite the files with

    PYTHONPATH=src python tests/test_golden.py --regen

and review the diff of tests/golden/ before committing it.

    PYTHONPATH=src python tests/test_golden.py --diff

compares fresh reports with the committed files without writing anything.
It prints every JSON path whose value changed, with the absolute and
relative change of each number and the largest of each, and exits non-zero
if anything other than a number changed (a verdict, status or note, a key,
a list length).  The last digits of the floats depend on the numpy build
and on the platform's libm (math.lgamma gives the monomial norms, and
through them the dilation profiles).  The files were written with numpy 2.4
on glibc 2.36, the numpy version .github/constraints.txt pins for the CI leg
on Python 3.11.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nullsatz.bergman import DomainSpec
from nullsatz.cli import main
from nullsatz.config import ENV_SEED
from nullsatz.nullsatz import classify
from nullsatz.polyalg import BiPoly, GaussRational

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DATA = HERE.parent / "demos" / "data"


def _cli_cases() -> dict[str, list[str]]:
    cases = {}
    for ideal in ("princ_half", "princ_two", "twolines", "mixed_ideal"):
        for domain, tag in (("ball", "ball"), ("1,3", "1_3")):
            cases[f"classify_{ideal}_{tag}"] = [
                "classify", "--ideal", str(DATA / f"{ideal}.json"), "--domain", domain,
            ]
    for ideal in ("twolines", "mixed_ideal"):
        cases[f"decompose_{ideal}"] = ["decompose", "--poly", str(DATA / f"{ideal}.json")]
    princ_two = str(DATA / "princ_two.json")
    cases["density_princ_two"] = ["density", "--poly", princ_two]
    cases["ratio_princ_two"] = ["ratio", "--poly", princ_two]
    cases["hopf_ratio_princ_two"] = ["hopf", "--poly", princ_two, "--ratio"]
    cases["norms_4_1_3"] = ["norms", "--max-degree", "4", "--domain", "1,3"]
    return cases


CLI_CASES = _cli_cases()


def _dense_pair(seed: int, degree: int) -> list[BiPoly]:
    """Two dense generators of total degree `degree` with Gaussian-rational
    coefficients p/q + i r/s, |p|, |r| <= 4, 1 <= q, s <= 4."""
    rng = random.Random(seed)

    def coeff() -> GaussRational:
        return GaussRational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        )

    return [
        BiPoly({(a, b): coeff() for a in range(degree + 1) for b in range(degree + 1 - a)})
        for _ in range(2)
    ]


def _library_cases() -> dict[str, tuple[list[BiPoly], DomainSpec]]:
    z1, z2 = BiPoly.var(1), BiPoly.var(2)
    return {
        # NEITHER: the parabola z2^2 = z1 meets the ball, the point (3, 2) does not
        "library_classify_two_generators": (
            [(z2**2 - z1) * (z2 - 2), (z2**2 - z1) * (z1 - 3)],
            DomainSpec.ball(),
        ),
        # 25 isolated points from a degree-25 resultant with large exact
        # coefficients: pins the exact gcd, resultant and root path
        "library_classify_dense_pair_5": (_dense_pair(5, 5), DomainSpec.parse("1,1")),
    }


LIBRARY_CASES = _library_cases()
CASES = sorted([*CLI_CASES, *LIBRARY_CASES])


def _cli_report(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _library_report(name: str) -> str:
    verdict = classify(*LIBRARY_CASES[name])
    return json.dumps(verdict.to_json_dict(), sort_keys=True, indent=2) + "\n"


def report(name: str) -> str:
    if name in LIBRARY_CASES:
        return _library_report(name)
    return _cli_report(CLI_CASES[name])


@pytest.mark.parametrize("name", CASES)
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert report(name).encode() == expected


def test_leaf_diffs_name_every_changed_value():
    old = {"a": 1.0, "b": [1, 2], "c": {"v": "CLOSED"}, "d": True, "f": 0.5}
    new = {"a": 1.5, "b": [1, 2, 3], "c": {"v": "DENSE"}, "d": 1, "e": None, "f": 0.5}
    assert list(_leaf_diffs(old, new)) == [
        ("$.a", 1.0, 1.5),
        ("$.b", [1, 2], [1, 2, 3]),
        ("$.c.v", "CLOSED", "DENSE"),
        ("$.d", True, 1),
        ("$.e", _MISSING, None),
    ]


def regenerate() -> None:
    os.environ.pop(ENV_SEED, None)
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN / f"{name}.json").write_bytes(report(name).encode())
        print(f"wrote {name}.json")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_MISSING = "<missing>"


def _leaf_diffs(old, new, path: str = "$"):
    """Yield (path, old, new) for each leaf where two JSON trees differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _leaf_diffs(old.get(key, _MISSING), new.get(key, _MISSING), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _leaf_diffs(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def diff() -> int:
    """Print how fresh reports differ from the golden files; 1 if a non-number changed."""
    os.environ.pop(ENV_SEED, None)
    other_changed = False
    top_abs = top_rel = 0.0
    for name in CASES:
        old = json.loads((GOLDEN / f"{name}.json").read_text())
        rows = list(_leaf_diffs(old, json.loads(report(name))))
        if rows:
            print(f"{name}.json")
        for path, a, b in rows:
            if _is_number(a) and _is_number(b):
                change = abs(b - a)
                rel = change / max(abs(a), abs(b))
                top_abs, top_rel = max(top_abs, change), max(top_rel, rel)
                print(f"  {path}: {a!r} -> {b!r} (abs {change:.3g}, rel {rel:.3g})")
            else:
                other_changed = True
                print(f"  {path}: {a!r} -> {b!r} (not a number)")
    print(f"largest number change: abs {top_abs:.3g}, rel {top_rel:.3g}")
    if other_changed:
        print("a value other than a number changed")
    return int(other_changed)


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        regenerate()
    elif sys.argv[1:] == ["--diff"]:
        sys.exit(diff())
    else:
        sys.exit("usage: python tests/test_golden.py --regen | --diff")
