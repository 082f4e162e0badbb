"""The ``distance`` workload: the quotdist layer on canonical tuples.

plcore only evaluates maps here (inside the free-space decision, the
oracle and the orbit DP) and builds few new ones.  ``op_p50_ms`` lands
on ``quot_dist``; ``ops_per_s`` and ``op_p90_ms`` are dominated by
``brute_oracle`` and ``orbit_identity_bound``.  Two tolerances show
whether an exact-value ``quot_dist`` costs more than a short bisection.
"""

from __future__ import annotations

from fractions import Fraction

from inprocess import InProcessWorkload, interleave, stratified

# Op shares per block of 20: 70% quot_dist (pairs and triples, half at
# tol 1/64, the CLI default, half at 1/256, the acceptance tolerance),
# 15% brute_oracle at k = 64, 15% orbit_identity_bound at net 16.
BLOCK = ("quot",) * 14 + ("oracle",) * 3 + ("orbit",) * 3
POOL = {"quot": 300, "oracle": 120, "orbit": 120}
TOLS = (Fraction(1, 64), Fraction(1, 256))
ORACLE_K = 64
GATE_K = 16
ORBIT_EPS = Fraction(1, 16)
ORBIT_NET = 16


def _has_plateau(point) -> bool:
    return any(y0 == y1 for f in point for (_, y0), (_, y1) in zip(f.breakpoints, f.breakpoints[1:]))


class Distance(InProcessWorkload):
    name = "distance"
    block = BLOCK
    blocks_per_run = 60
    trace_ops = 100

    def generate(self, pm, ser, explorer, rng):
        def pairs(count):
            pools = (stratified(lambda: [explorer.random_point(rng, n) for _ in range(2)], count // 2) for n in (2, 3))
            return [[ser.canonical_to_obj(p) for p in pair] for pair in interleave(*pools)]

        def plateau_point():
            point = explorer.random_point(rng, 2)
            while not _has_plateau(point):
                point = explorer.random_point(rng, 2)
            return point

        def off_lattice(point):
            # Breakpoints off the net's lattice drive the orbit DP's cost.
            return sum((x * ORBIT_NET).denominator != 1 for f in point for x, _ in f.breakpoints[1:-1])

        half = POOL["orbit"] // 2
        homeos = stratified(lambda: explorer.random_homeo(rng), half, lambda h: off_lattice(pm.embed_homeo(h)))
        points = stratified(plateau_point, half, off_lattice)
        orbit = interleave([{"homeo": ser.mono_to_obj(h)} for h in homeos], [{"point": ser.canonical_to_obj(p)} for p in points])
        return {"quot": pairs(POOL["quot"]), "oracle": pairs(POOL["oracle"]), "orbit": orbit}

    def parse(self, obj):
        ser = self.ser

        def orbit_item(o):
            return ser.homeo_from_obj(o["homeo"]) if "homeo" in o else ser.canonical_from_obj(o["point"])

        return {
            "quot": [tuple(ser.canonical_from_obj(o) for o in p) for p in obj["quot"]],
            "oracle": [tuple(ser.canonical_from_obj(o) for o in p) for p in obj["oracle"]],
            "orbit": [orbit_item(o) for o in obj["orbit"]],
        }

    def run(self, key):
        kind, index = key
        if kind == "quot":
            # Consecutive quot ops share a pair, one at each tolerance.
            a, b = self.item(kind, index // 2)
            return self.pm.quot_dist(a, b, TOLS[index % 2])
        return super().run(key)

    def check(self, key, out):
        kind, index = key
        if kind == "quot":
            return self.check_quot(self.item(kind, index // 2), TOLS[index % 2], out)
        return super().check(key, out)

    # -- ops ---------------------------------------------------------------

    def op_oracle(self, item):
        a, b = item
        return self.pm.brute_oracle(a, b, ORACLE_K)

    def op_orbit(self, item):
        pm = self.pm
        point = pm.embed_homeo(item) if isinstance(item, pm.PLHomeo) else item
        return pm.orbit_identity_bound(point, ORBIT_EPS, ORBIT_NET)

    # -- output gate -------------------------------------------------------

    def check_quot(self, item, tol, qi):
        pm = self.pm
        a, b = item
        if qi.hi - qi.lo > tol:
            return "bracket wider than tol"
        if not pm.quot_decision(a, b, qi.hi):
            return "decision False at hi"
        if qi.lo != 0 and pm.quot_decision(a, b, qi.lo):
            return "decision True at a nonzero lo"
        if qi.lo > pm.brute_oracle(a, b, GATE_K):
            return "lo above the grid oracle"
        return None

    def check_oracle(self, item, value):
        # The sandwich of acceptance criterion 5: the oracle bounds the
        # distance from above and exceeds it by at most n * slope / k.
        pm = self.pm
        a, b = item
        qi = pm.quot_dist(a, b, TOLS[0])
        slope = max(pm.max_slope(f) for t in (a, b) for f in t)
        if not qi.lo <= value <= qi.hi + len(a) * slope / ORACLE_K:
            return "oracle outside [lo, hi + n*slope/k]"
        return None

    def check_orbit(self, item, result):
        pm = self.pm
        point = pm.embed_homeo(item) if isinstance(item, pm.PLHomeo) else item
        first, second = point.components
        if not 0 <= result.upper_bound <= pm.sup_dist(first, second) / 2:
            return "orbit bound outside [0, sup_dist/2]"
        if result.member != (result.upper_bound < ORBIT_EPS):
            return "member flag disagrees with the bound"
        return None
