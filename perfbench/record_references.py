"""Record the mpmath reference value of every non-grid numeric point.

    python3 perfbench/record_references.py

Writes perfbench/references.json: for every point that any seed can draw
(workloads.recorded_points), its coordinates, weights and the value of
reference.desing2_mp.  The references never come from the package under
test, so they need re-recording only when the point generator or the
reference evaluator changes.  Two worker processes share the work (about
20 minutes of CPU time in all).
"""

import json
import multiprocessing
import os
from fractions import Fraction

import reference as R
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_of(item):
    value = R.desing2_mp(complex(*item["s1"]), complex(*item["s2"]),
                         Fraction(item["g"][0]), Fraction(item["g"][1]),
                         item["extra_digits"])
    return [value.real, value.imag]


def main():
    points = W.recorded_points()
    with multiprocessing.Pool(2) as pool:
        values = pool.map(reference_of, points, chunksize=8)
    lines = ["%s: %s" % (json.dumps(p["ref"]),
                         json.dumps(dict({k: p[k] for k in W.POINT_KEYS}, value=v),
                                    sort_keys=True))
             for p, v in zip(points, values)]
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
