"""Aim 3 in tier-1: desing2 at the benchmark's tol over every recorded
reference point of perfbench/references.json, graded as the command
line's --tol gate sees it.  A point is refused (it raises, or its estimate
is above tol), wrong (accepted with a true error above tol), "over est"
(accepted, within tol, but with a true error above its estimate) or
honest.  The "over est" and "wrong" counts per kind may fall, not rise.
The same loop pins every output bit for bit: one sha256 per kind over each
point's value and estimate (float.hex) and method, or its refusal text."""

import collections
import hashlib
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
BOUNDS = {"regular": (45, 1), "near": (27, 16), "far": (0, 0)}
# the digest of every output per kind; a change that moves output bits on
# purpose re-records the kind's digest and says so in CHANGES.md
DIGESTS = {
    "regular": "7f6e6861021e6afd8266eadbd577bf255defe65b48e56cbf1ceff5ee06da7fee",
    "near": "fe8328af8dd49e0c57832a7305194f25962d38325f98b2bbaafa3091248549b2",
    "far": "4a440fd4710119bd9a59fe42c839a745f9febb713bdae5578f3f835576e675ba",
}


def _grade(point, digest):
    s1, s2 = complex(*point["s1"]), complex(*point["s2"])
    g1, g2 = (complex(Fraction(g)) for g in point["g"])
    try:
        got = desing2(s1, s2, g1, g2, tol=TOL)
    except (ValueError, ToleranceError) as exc:
        digest.update(("%s\n" % exc).encode())
        return "refused"
    digest.update(("%s %s %s %s\n" % (got.value.real.hex(), got.value.imag.hex(),
                                      float(got.err_estimate).hex(), got.method)).encode())
    if not got.err_estimate <= TOL:
        return "refused"
    err = abs(got.value - complex(*point["value"]))
    if not err <= TOL:
        return "wrong"
    return "over est" if err > got.err_estimate else "honest"


def test_honesty_ratchet():
    table = collections.defaultdict(collections.Counter)
    digests = collections.defaultdict(hashlib.sha256)
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    for key, point in references.items():
        kind = key.split("/")[0]
        table[kind][_grade(point, digests[kind])] += 1
    text = "\n".join("%-8s %s" % (kind, ", ".join("%s %d" % (g, table[kind][g]) for g in GRADES))
                     for kind in sorted(table))
    assert sorted(table) == sorted(BOUNDS), text
    assert sum(sum(c.values()) for c in table.values()) == len(references) == 1856, text
    for kind, (over, wrong) in BOUNDS.items():
        assert table[kind]["over est"] <= over and table[kind]["wrong"] <= wrong, \
            "%s above its bounds (over est %d, wrong %d):\n%s" % (kind, over, wrong, text)
    moved = {kind: d.hexdigest() for kind, d in digests.items() if d.hexdigest() != DIGESTS[kind]}
    assert not moved, "the outputs moved: digests %s" % moved
