"""Aim 3 in tier-1: desing2 at the benchmark's tol over every recorded
reference point of perfbench/references.json, graded as the command
line's --tol gate sees it.  A point is refused (it raises, or its estimate
is above tol), wrong (accepted with a true error above tol), "over est"
(accepted, within tol, but with a true error above its estimate) or
honest.  The "over est" and "wrong" counts per kind may fall, not rise."""

import collections
import json
import pathlib
from fractions import Fraction

from deszeta.numeric import ToleranceError, desing2

REFERENCES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
TOL = 1e-6
GRADES = ("honest", "over est", "wrong", "refused")
# the most "over est" and "wrong" points per kind; lower a bound when a
# change mends points, and every bound is 0 once each estimate is an
# upper bound
BOUNDS = {"regular": (45, 1), "near": (95, 16), "far": (0, 0)}


def _grade(point):
    s1, s2 = complex(*point["s1"]), complex(*point["s2"])
    g1, g2 = (complex(Fraction(g)) for g in point["g"])
    try:
        got = desing2(s1, s2, g1, g2, tol=TOL)
    except (ValueError, ToleranceError):
        return "refused"
    if not got.err_estimate <= TOL:
        return "refused"
    err = abs(got.value - complex(*point["value"]))
    if not err <= TOL:
        return "wrong"
    return "over est" if err > got.err_estimate else "honest"


def test_honesty_ratchet():
    table = collections.defaultdict(collections.Counter)
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    for key, point in references.items():
        table[key.split("/")[0]][_grade(point)] += 1
    text = "\n".join("%-8s %s" % (kind, ", ".join("%s %d" % (g, table[kind][g]) for g in GRADES))
                     for kind in sorted(table))
    assert sorted(table) == sorted(BOUNDS), text
    assert sum(sum(c.values()) for c in table.values()) == len(references) == 1856, text
    for kind, (over, wrong) in BOUNDS.items():
        assert table[kind]["over est"] <= over and table[kind]["wrong"] <= wrong, \
            "%s above its bounds (over est %d, wrong %d):\n%s" % (kind, over, wrong, text)
