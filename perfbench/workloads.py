"""Seeded inputs of the three workloads.

Every workload is a list of items generated from the seed alone; the
program under test only ever sees the generated items.

* ``exact-tables``: CLI commands of the exact stack.  Each command that takes
  roots or weights has ``VARIANTS`` fixed variants and the seed picks one, so
  the stdout digest of every command the benchmark can generate is recorded
  in ``digests.json`` and checked on every run, whatever the seed.  Weights
  are drawn as a fixed rational or its reciprocal and roots as Galois
  conjugates of a fixed tuple, which keeps the cost of a table close to the
  same across seeds.
* ``numeric-regular``: points where all three shifted double zetas of the
  desing2 combination are evaluated directly (no extrapolation).
* ``numeric-continuation``: the (-k, -l) grid, points within 1e-9..1e-6 of a
  singular hyperplane, and a slice beyond today's continuation reach.

Every non-grid point fills a slot with a fixed weight pair, and the slot has
``VARIANTS`` fixed points of which the seed picks one, so the mpmath
reference of every point the benchmark can generate is recorded in
``references.json`` (grid points get the exact closed form at run time).
"""

import math
import random
from fractions import Fraction

VARIANTS = 8
TOL = 1e-6  # the tolerance every numeric point is evaluated at, as `eval --tol`

WORKLOADS = ("exact-tables", "numeric-regular", "numeric-continuation")

# rational weights drawn for numeric points: beta = g1/g2 stays in [1/4, 4]
WEIGHT_POOL = ("1/2", "2/3", "3/4", "4/3", "3/2", "2")
WEIGHTED_SHARE = 4  # one point in WEIGHTED_SHARE carries rational weights

N_REGULAR = 200
N_NEAR = 24
N_FAR = 8
GRID_MAX = 5
SINGULAR_MARGIN = 1e-3  # least distance of a regular point's terms to a pole
REGULAR_REACH = -12.0  # regular points keep Re(s1 + s2) above this


def _units(c):
    return [a for a in range(1, c) if math.gcd(a, c) == 1]


def _flip(rng, weights):
    """Each weight or its reciprocal: the rationals keep their sizes, so the
    cost of a table barely depends on the draw."""
    return ",".join(str(1 / Fraction(w)) if rng.random() < 0.5 else w for w in weights)


def _conjugate(rng, c, roots):
    """The root indices times a random unit mod c: a Galois conjugate tuple."""
    k = rng.choice(_units(c))
    return ",".join(str(k * a % c) for a in roots)


def _exact_commands():
    """(name, rng -> argv) for every command of exact-tables, in order."""

    def desing_values(rng):
        return ["desing-values", "--r", "4", "--kmax", "4",
                "--gamma", _flip(rng, ("1/2", "2/3", "3/2", "2"))]

    def multi_bernoulli_c5(rng):
        return ["multi-bernoulli", "--r", "3", "--c", "5",
                "--a-list", _conjugate(rng, 5, (1, 2, 3)),
                "--gamma", _flip(rng, ("1/2", "2/3", "3/2")), "--max", "3"]

    def twisted(c):
        return lambda rng: ["twisted-bernoulli", "--c", str(c),
                            "--a", str(rng.choice(_units(c))), "--max", "30"]

    def multi_bernoulli_r2(c, roots):
        return lambda rng: ["multi-bernoulli", "--r", "2", "--c", str(c),
                            "--a-list", _conjugate(rng, c, roots),
                            "--gamma", _flip(rng, ("2/3", "3/2")), "--max", "3"]

    commands = [
        ("desing-values-r4", desing_values),
        ("multi-bernoulli-r3-c5", multi_bernoulli_c5),
    ]
    for c, roots in ((7, (1, 3)), (12, (1, 5)), (30, (1, 7))):
        commands.append(("twisted-bernoulli-c%d" % c, twisted(c)))
        commands.append(("multi-bernoulli-r2-c%d" % c, multi_bernoulli_r2(c, roots)))
    commands.append(("coeffs-r6", lambda rng: ["coeffs", "--r", "6"]))
    commands.append(("verify-exact", lambda rng: ["verify", "--suite", "exact"]))
    return commands


EXACT_COMMANDS = _exact_commands()


def exact_argv(name, variant):
    """The argv of one command variant; fixed by (name, variant) alone."""
    build = dict(EXACT_COMMANDS)[name]
    return build(random.Random("%s/%d" % (name, variant)))


def exact_items(seed):
    rng = random.Random(seed)
    items = []
    for name, _ in EXACT_COMMANDS:
        variant = rng.randrange(VARIANTS)
        items.append({"name": name, "variant": variant, "argv": exact_argv(name, variant)})
    return items


# -- numeric points ---------------------------------------------------------

def singular_distance(s1, s2):
    """Distance of the three shifted terms of desing2 at (s1, s2) to the
    singular hyperplanes s2 = 1 and s1 + s2 in {2, 1, 0, -2, -4, ...}.

    The shifts (0,0), (-1,1), (-2,2) leave s1 + s2 unchanged and move s2
    onto 1 when s2 is near 1, 0 or -1.
    """
    w = s1 + s2
    levels = [2, 1, 0] + list(range(-2, -41, -2))
    d_sum = min(abs(w - v) for v in levels) / math.sqrt(2)
    d_s2 = min(abs(s2 - v) for v in (1, 0, -1))
    return min(d_sum, d_s2)


def _point(kind, s1, s2, g1="1", g2="1", extra_digits=0, grid=None, ref=None):
    return {"kind": kind, "s1": [s1.real, s1.imag], "s2": [s2.real, s2.imag],
            "g": [g1, g2], "grid": grid, "extra_digits": extra_digits, "ref": ref}


def _weights(rng, n, share):
    """Weight pairs of n points: one point in ``share`` gets a rational pair.

    The pairs are every ordered pair of WEIGHT_POOL in turn, dealt to the
    points in ``rng`` order, so every draw carries the same mix of weight
    ratios (and of costs).
    """
    pairs = [(g1, g2) for g1 in WEIGHT_POOL for g2 in WEIGHT_POOL]
    weighted = -(-n // share)
    out = [pairs[i % len(pairs)] for i in range(weighted)] + [("1", "1")] * (n - weighted)
    rng.shuffle(out)
    return out


# fixed weight pair of every non-grid slot, the same on every seed
REGULAR_WEIGHTS = _weights(random.Random("numeric-regular/weights"), N_REGULAR, WEIGHTED_SHARE)
NEAR_WEIGHTS = _weights(random.Random("numeric-continuation/near/weights"), N_NEAR,
                        WEIGHTED_SHARE)
FAR_WEIGHTS = _weights(random.Random("numeric-continuation/far/weights"), N_FAR,
                       WEIGHTED_SHARE)
# near slots go to the hyperplanes in turn, the same number near each
HYPERPLANES = ("s2=1", 2, 1, 0, -2, -4, -6, -8)


def _uniform_c(rng, re_lo, re_hi, im_lo, im_hi):
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def _slot_rng(workload, slot, variant):
    return random.Random("%s/%d/%d" % (workload, slot, variant))


def regular_point(slot, variant):
    g = REGULAR_WEIGHTS[slot]
    rng = _slot_rng("numeric-regular", slot, variant)
    while True:
        s1 = _uniform_c(rng, -6, 8, -3, 3)
        s2 = _uniform_c(rng, -6, 8, -3, 3)
        if (s1 + s2).real > REGULAR_REACH and singular_distance(s1, s2) >= SINGULAR_MARGIN:
            return _point("regular", s1, s2, *g, ref="regular/%d/%d" % (slot, variant))


def near_point(slot, variant):
    """A non-integer point within 1e-9..1e-6 of the slot's hyperplane."""
    plane = HYPERPLANES[slot % len(HYPERPLANES)]
    g = NEAR_WEIGHTS[slot]
    rng = _slot_rng("numeric-continuation/near", slot, variant)
    dist = 10.0 ** rng.uniform(-9, -6)
    angle = rng.uniform(0, 2 * math.pi)
    offset = dist * complex(math.cos(angle), math.sin(angle))
    if plane == "s2=1":
        s1 = _uniform_c(rng, -6, 8, -3, 3)
        s2 = 1 + offset
    else:
        s2 = _uniform_c(rng, -5, 5, -3, 3)
        s1 = plane - s2 + offset * math.sqrt(2)
    # digits lost to the 1/dist poles cancelling inside the combination
    return _point("near", s1, s2, *g, extra_digits=int(-math.log10(dist)) + 3,
                  ref="near/%d/%d" % (slot, variant))


def far_point(slot, variant):
    """A point beyond today's reach: Re(s1 + s2) in [-22, -15], such as (-20.5, 0.3)."""
    g = FAR_WEIGHTS[slot]
    rng = _slot_rng("numeric-continuation/far", slot, variant)
    s2 = _uniform_c(rng, 0.1, 0.9, -0.5, 0.5)
    s1 = complex(rng.uniform(-22, -15), rng.uniform(-0.5, 0.5)) - s2.real
    return _point("far", s1, s2, *g, ref="far/%d/%d" % (slot, variant))


# every slot of a point kind: (point function, number of slots)
SLOTS = ((regular_point, N_REGULAR), (near_point, N_NEAR), (far_point, N_FAR))


# the fields that identify a recorded point: its reference is checked against them
POINT_KEYS = ("s1", "s2", "g")


def recorded_points():
    """Every non-grid point any seed can draw; references.json holds a
    reference value for each."""
    return [point(slot, variant) for point, n in SLOTS
            for slot in range(n) for variant in range(VARIANTS)]


def regular_items(seed):
    rng = random.Random(seed)
    return [regular_point(slot, rng.randrange(VARIANTS)) for slot in range(N_REGULAR)]


def continuation_items(seed):
    rng = random.Random(seed)
    points = []
    # the (-k, -l) grid, once with unit weights and once with seeded weights
    grid = [(k, l) for k in range(GRID_MAX + 1) for l in range(GRID_MAX + 1)]
    for weights in ([("1", "1")] * len(grid), _weights(rng, len(grid), 1)):
        for (k, l), g in zip(grid, weights):
            points.append(_point("grid", complex(-k), complex(-l), *g, grid=[k, l]))
    points += [near_point(slot, rng.randrange(VARIANTS)) for slot in range(N_NEAR)]
    points += [far_point(slot, rng.randrange(VARIANTS)) for slot in range(N_FAR)]
    return points


def items(workload, seed):
    if workload == "exact-tables":
        return exact_items(seed)
    if workload == "numeric-regular":
        return regular_items(seed)
    if workload == "numeric-continuation":
        return continuation_items(seed)
    raise KeyError(workload)
