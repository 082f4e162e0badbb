"""The ``algebra`` workload: plcore composition and typespace
canonicalization, with gap-calculus and witness ops; no quotdist.

Every op builds new maps, so this is where a faster compose/combine
kernel or a cheaper CanonicalTuple constructor shows.  Tuples have
n in {1, 2, 3, 5}, drawn with ``explorer.random_tuple``.
"""

from __future__ import annotations

from fractions import Fraction

from inprocess import InProcessWorkload, interleave, stratified

NS = (1, 2, 3, 5)
# Op shares per block of 20: 40% canonicalize, 15% reconstruction,
# 15% reparameterize-then-canonicalize, 10% order predicate on triples,
# 15% gap ops, 5% uniform witness.
BLOCK = ("canon",) * 8 + ("recon",) * 3 + ("reparam",) * 3 + ("order",) * 2 + ("gaps",) * 3 + ("witness",)
POOL = {"canon": 400, "recon": 160, "reparam": 160, "order": 100, "gaps": 150, "witness": 50}


def _gap_item(pm, explorer, rng):
    """Raw overlapping intervals on the 1/64 grid whose merge has no
    isolated points, plus a pair: half adapted to the gaps, half a
    random canonical pair."""
    while True:
        raw = []
        for _ in range(rng.randrange(1, 5)):
            a = rng.randrange(1, 60)
            raw.append((Fraction(a, 64), Fraction(rng.randrange(a + 1, min(a + 24, 64)), 64)))
        merged = pm.merge_gaps(raw)
        if not pm.isolated_points(merged):
            break
    if rng.randrange(2):
        lo_pts = [(0, 0)]
        hi_pts = [(0, 0)]
        for a, b in merged.gaps:
            if rng.randrange(2):
                quarter = (b - a) / 4
                a, b = a + quarter, b - quarter
            mid = (a + b) / 2
            lo_pts += [(a, a), (mid, a), (b, b)]
            hi_pts += [(a, a), (mid, b), (b, b)]
        return raw, (pm.PLMono((*lo_pts, (1, 1))), pm.PLMono((*hi_pts, (1, 1))))
    return raw, explorer.random_point(rng, 2).components


class Algebra(InProcessWorkload):
    name = "algebra"
    block = BLOCK
    blocks_per_run = 300
    trace_ops = 400

    def generate(self, pm, ser, explorer, rng):
        def per_n(draw, count):
            return interleave(*(stratified(lambda: draw(n), count // len(NS)) for n in NS))

        recon = []
        for t in per_n(lambda n: explorer.random_tuple(rng, n), POOL["recon"]):
            ct, m = pm.canonicalize(t)
            # Pairs travel as their 1-Lipschitz coordinate.
            form = ser.coord_to_obj(pm.roelcke_coord(ct)) if len(t) == 2 else ser.canonical_to_obj(ct)
            recon.append({"tuple": ser.tuple_to_obj(t), "canonical": form, "mean": ser.mono_to_obj(m)})
        reparam = per_n(lambda n: (explorer.random_tuple(rng, n), explorer.random_homeo(rng)), POOL["reparam"])
        order = stratified(lambda: [explorer.random_mono(rng) for _ in range(3)], POOL["order"])
        return {
            "canon": [ser.tuple_to_obj(t) for t in per_n(lambda n: explorer.random_tuple(rng, n), POOL["canon"])],
            "recon": recon,
            "reparam": [{"tuple": ser.tuple_to_obj(t), "homeo": ser.mono_to_obj(h)} for t, h in reparam],
            "order": [[ser.mono_to_obj(f) for f in triple] for triple in order],
            "gaps": [
                {"raw": [[ser.frac_str(a), ser.frac_str(b)] for a, b in raw], "pair": [ser.mono_to_obj(f) for f in pair]}
                for raw, pair in stratified(lambda: _gap_item(pm, explorer, rng), POOL["gaps"])
            ],
            "witness": [ser.mono_to_obj(g) for g in stratified(lambda: explorer.random_homeo(rng), POOL["witness"])],
        }

    def parse(self, obj):
        ser = self.ser

        def form(o):
            return ser.coord_from_obj(o) if "coord" in o else ser.canonical_from_obj(o)

        return {
            "canon": [ser.tuple_from_obj(o)[0] for o in obj["canon"]],
            "recon": [
                (ser.tuple_from_obj(o["tuple"])[0], form(o["canonical"]), ser.mono_from_obj(o["mean"]))
                for o in obj["recon"]
            ],
            "reparam": [
                (ser.tuple_from_obj(o["tuple"])[0], ser.homeo_from_obj(o["homeo"])) for o in obj["reparam"]
            ],
            "order": [tuple(ser.mono_from_obj(m) for m in o) for o in obj["order"]],
            "gaps": [
                ([tuple(ser.parse_frac(x) for x in iv) for iv in o["raw"]], tuple(ser.mono_from_obj(m) for m in o["pair"]))
                for o in obj["gaps"]
            ],
            "witness": [ser.homeo_from_obj(o) for o in obj["witness"]],
        }

    # -- ops ---------------------------------------------------------------

    def op_canon(self, t):
        pm = self.pm
        ct, m = pm.canonicalize(t)
        return ct, m, pm.roelcke_coord(ct) if len(t) == 2 else None

    def op_recon(self, item):
        pm = self.pm
        _, form, m = item
        ct = pm.coord_to_pair(form) if isinstance(form, pm.RoelckeCoord) else form
        return tuple(pm.compose(c, m) for c in ct)

    def op_reparam(self, item):
        pm = self.pm
        t, h = item
        return pm.canonicalize(pm.MonoTuple(tuple(pm.compose(f, h) for f in t)))

    def op_order(self, item):
        pm = self.pm
        f, g, h = item
        return (
            pm.order_excess(f, g), pm.order_excess(g, f), pm.order_excess(g, h),
            pm.order_excess(f, h), pm.sup_dist(f, g),
        )

    def op_gaps(self, item):
        pm = self.pm
        raw, (f, h) = item
        g = pm.merge_gaps(raw)
        chi = pm.collapse_map(g)
        lo, hi = pm.extreme_pair_all(g)
        return (
            g, pm.equiv_test(f, h, g), pm.collapsed_dist(f, h, chi),
            pm.equiv_test(lo, hi, g), pm.collapsed_dist(lo, hi, chi),
        )

    def op_witness(self, g):
        return self.pm.uniform_witness(g)

    # -- output gate -------------------------------------------------------

    def check_canon(self, t, out):
        pm = self.pm
        ct, m, rc = out
        if pm.mean(ct.as_tuple(), ct.weights) != pm.identity():
            return "canonical mean is not the identity"
        if any(pm.compose(c, m) != f for c, f in zip(ct, t)):
            return "compose(ct[i], m) != t[i]"
        if rc is not None and pm.coord_to_pair(rc) != ct:
            return "pair coordinate does not decode to the canonical pair"
        return None

    def check_recon(self, item, out):
        return None if out == item[0].components else "reconstruction differs from the tuple"

    def check_reparam(self, item, out):
        t, _ = item
        ct, _ = out
        return None if ct == self.pm.canonicalize(t)[0] else "canonical form moved under reparameterization"

    def check_order(self, item, out):
        e_fg, e_gf, e_gh, e_fh, s_fg = out
        if min(e_fg, e_gf, e_gh, e_fh) < 0:
            return "negative order excess"
        if s_fg != max(e_fg, e_gf):
            return "sup_dist != max of the two order excesses"
        if e_fh > e_fg + e_gh:
            return "order excess breaks the triangle inequality"
        return None

    def check_gaps(self, item, out):
        pm = self.pm
        g, eq, dist, eq_ext, dist_ext = out
        if pm.merge_gaps(g.gaps) != g:
            return "merge_gaps is not idempotent"
        if eq != (dist == 0):
            return "equiv_test disagrees with collapsed_dist == 0"
        if not eq_ext or dist_ext != 0:
            return "extreme pair not identified by its gap set"
        return None

    def check_witness(self, g, w):
        pm = self.pm
        lifted = g if any(y > x for x, y in g.breakpoints) else pm.inverse(g)
        return None if pm.sup_dist(pm.compose(w, pm.inverse(lifted)), w) == 1 else "witness distance != 1"
