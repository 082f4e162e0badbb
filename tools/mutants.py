"""Mutation gate: the one- and two-line mutants of src/ that past changes
showed a test catching, kept so that a later change cannot quietly lose
the catch.

Each row of MUTANTS is (module, exact old text, new text, test selector,
origin commit).  First every selector must pass on an unmutated copy of src/.
Then, per row, src/ is copied to a temporary directory, the old text must
occur exactly once in the module, it is replaced, and

    python -m pytest -q -x -p no:cacheprovider --hypothesis-seed=0 <selector>

runs with PYTHONPATH on the copy; the row passes when pytest reports a
failing test (exit status 1: the mutant is killed).  Any other status, a
collection error or an unknown selector say, fails the row too.  Pytest runs in the temporary directory, so the
Hypothesis example database of the checkout is neither read nor written,
and the fixed Hypothesis seed makes each verdict repeatable.

When a change rewrites a mutant's site, port the row to the new code;
dropping a row weakens the gate.  Stdlib only.  From the repository root:

    python tools/mutants.py

Exit status 0 when the unmutated copy passes and every mutant is killed.

Equivalent mutants, not seeded: in quotdist._value's line cap, min read
as max, and the cap's <= read as <.  Each only loosens a valid bound on
the line's candidates, so fewer lines are skipped and the value is the
same.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module under src/plmonoid/, exact old text, new text, pytest selector,
# origin: the commit whose change first showed a test killing the mutant,
# or "new" for a row added together with the code it mutates)
MUTANTS = [
    (
        "plcore.py",
        "    return lows, [last.get(t, v) for t, v in zip(args, lows)]\n",
        "    return lows, lows\n",
        "tests/test_plcore.py::test_end_plateaus_match_pointwise_evaluation",
        "fdfd053: the sweep's upper side ignored",
    ),
    (
        "plcore.py",
        "if dx < 0 or dy < 0:  # out of (x, y) order",
        "if dx < 0:  # out of (x, y) order",
        "tests/test_plcore.py::test_sort_skip_matches_fraction_reference",
        "34cd399: _normalize's order check on x alone",
    ),
    (
        "plcore.py",
        "tn, td = dy * x1d * x2d, dx * y1d * y2d",
        "tn, td = dy * x1d * y2d, dx * y1d * x2d",
        "tests/test_plcore.py::test_constructors_match_fraction_reference",
        "4404f8b: a swapped factor in _normalize's collinear test",
    ),
    (
        "plcore.py",
        "                if dy:  # a conflict, raised at the end\n",
        "                if False:  # a conflict, raised at the end\n",
        "tests/test_plcore.py::test_constructors_match_fraction_reference",
        "4404f8b: _normalize's dedup on x only",
    ),
    (
        "plcore.py",
        "rows.sort(key=lambda row: (Fraction(*row[0]), Fraction(*row[1])))",
        "rows.sort(key=lambda row: Fraction(*row[0]))",
        "tests/test_plcore.py::test_sort_skip_matches_fraction_reference",
        "4404f8b: _normalize sorting without y",
    ),
    (
        "plcore.py",
        "        if any(a * d >= c * b for (a, b), (c, d) in zip(tr, tr[1:])):\n",
        "        if any(a * d > c * b for (a, b), (c, d) in zip(tr, tr[1:])):\n",
        "tests/test_plcore.py::test_constructors_match_fraction_reference",
        "4404f8b: LcMono's strict check on values made weak",
    ),
    (
        "plcore.py",
        "        if rise < 0:\n",
        "        if False:\n",
        "tests/test_plcore.py::test_constructors_match_fraction_reference",
        "new: PLMono's check of the least rise sign dropped",
    ),
    (
        "plcore.py",
        "    while i < fend or j < gend:\n",
        "    while i < fend and j < gend:\n",
        "tests/test_plcore.py::test_max_difference_matches_fraction_reference",
        "new: the two-map merge stopping when one map's interior vertices run out",
    ),
    (
        "plcore.py",
        "        if c < 0:  # f's vertex comes first: g on its segment j - 1 .. j\n",
        "        if c > 0:  # f's vertex comes first: g on its segment j - 1 .. j\n",
        "tests/test_plcore.py::test_max_difference_matches_fraction_reference",
        "new: the two-map merge reading the later vertex first",
    ),
    (
        "plcore.py",
        "    t, top = max(h.breakpoints, key=lambda p: p[1] - p[0])\n",
        "    t, top = max(reversed(h.breakpoints), key=lambda p: p[1] - p[0])\n",
        "tests/test_plcore.py::test_witness_takes_the_first_breakpoint_of_greatest_displacement",
        "new: the witness taken at the last breakpoint of greatest displacement",
    ),
    (
        "plcore.py",
        "any(yn * xd > xn * yd for (xn, xd), (yn, yd) in zip(g._xr, g._yr))",
        "any(yn * xd >= xn * yd for (xn, xd), (yn, yd) in zip(g._xr, g._yr))",
        "tests/test_plcore.py::test_witness_below_identity_uses_inverse",
        "new: the witness's direction test counting a fixed point as above the identity",
    ),
    (
        "plcore.py",
        "        d = cd * d\n",
        "        d = d * d\n",
        "tests/test_plcore.py::test_combine_matches_fraction_reference",
        "34cd399: d * d for cd * d in _combined",
    ),
    (
        "plcore.py",
        "    d = lcm(*[q for _, q in ratios])\n",
        "    d = max([q for _, q in ratios])\n",
        "tests/test_typespace.py::test_nonuniform_weights",
        "4404f8b: max for lcm in _ints",
    ),
    (
        "plcore.py",
        "n, d = n * e + c * vn * (d // g), d * e",
        "n, d = n * e + c * vn * d, d * e",
        "tests/test_plcore.py::test_combine_matches_fraction_reference",
        "new: a term of the running-lcm sum scaled by the whole lcm",
    ),
    (
        "typespace.py",
        "    return RoelckeCoord._from_pairs(_sheared(first._xr, first._yr, -1, 1))\n",
        "    return RoelckeCoord._from_pairs(_sheared(first._xr, first._yr, 1, -1))\n",
        "tests/test_typespace.py::test_roelcke_coord_matches_fraction_reference",
        "new: roelcke_coord's numerator as x - y",
    ),
    (
        "typespace.py",
        "    if not isinstance(c, CanonicalTuple) or len(c) != 2 or c.weights != uniform_weights(2):\n",
        "    if len(c) != 2 or c.weights != uniform_weights(2):\n",
        "tests/test_typespace.py::test_coord_requires_pairs",
        "new: roelcke_coord reading the weights of a tuple that has none",
    ),
    (
        "typespace.py",
        "    second = PLMono._from_pairs(_sheared(rc._xr, rc._yr, 1, -1))\n",
        "    second = PLMono._from_pairs(_sheared(rc._xr, rc._yr, 1, 1))\n",
        "tests/test_typespace.py::test_coord_to_pair_matches_fraction_reference",
        "new: coord_to_pair's x - y row built as x + y",
    ),
    (
        "typespace.py",
        "    if not isinstance(rc, RoelckeCoord):\n",
        "    if not isinstance(rc, _Polyline):\n",
        "tests/test_typespace.py::test_coord_requires_pairs",
        "new: coord_to_pair shearing a map that is not a coordinate",
    ),
    (
        "typespace.py",
        "        if _combined([x.as_integer_ratio() for x in w], rows) != xs:\n",
        "        if _combined([x.as_integer_ratio() for x in w], rows)[::2] != xs[::2]:\n",
        "tests/test_typespace.py::test_canonical_check_matches_rebuilt_mean",
        "4404f8b: the canonical mean checked on every other grid point",
    ),
    (
        "typespace.py",
        "levels = _combined([x.as_integer_ratio() for x in w], rows)",
        "levels = _combined([(1, len(w))] * len(w), rows)",
        "tests/test_typespace.py::test_canonicalize_matches_two_step_reference",
        "d795ac8: uniform weights in canonicalize",
    ),
    (
        "typespace.py",
        "    if weights is None and isinstance(t, CanonicalTuple) and t.weights.count(t.weights[0]) == len(t):\n",
        "    if weights is None and isinstance(t, CanonicalTuple):\n",
        "tests/test_quotdist.py::test_weighted_canonical_input_is_canonicalized_again",
        "new: any canonical tuple taken as its own uniform canonical form",
    ),
    (
        "typespace.py",
        "    if weights is None and isinstance(t, CanonicalTuple) and t.weights.count(t.weights[0]) == len(t):\n",
        "    if isinstance(t, CanonicalTuple) and t.weights.count(t.weights[0]) == len(t):\n",
        "tests/test_typespace.py::test_canonicalize_recomputes_a_canonical_tuple_under_other_weights",
        "new: the canonical shortcut taken whatever weights are asked for",
    ),
    (
        "typespace.py",
        "if not grid.issuperset(c._xr) or _sweep(c._xr, c._yr, levels) != row:",
        "if not grid.issuperset(c._xr):",
        "tests/test_typespace.py::test_canonicalize_rejects_a_component_off_its_row",
        "new: canonicalize's check passing a component that lost a vertex",
    ),
    (
        "typespace.py",
        "if not grid.issuperset(c._xr) or _sweep(c._xr, c._yr, levels) != row:",
        "if _sweep(c._xr, c._yr, levels) != row:",
        "tests/test_typespace.py::test_canonicalize_rejects_a_component_vertex_off_the_grid",
        "new: canonicalize's check passing a component bent between two levels",
    ),
    (
        "gaps.py",
        "    return sorted(map(_check_interval, items), key=itemgetter(0))\n",
        "    return list(map(_check_interval, items))\n",
        "tests/test_gaps.py::test_gapset_sorts_disjoint_gaps_given_out_of_order",
        "new: GapSet checking its gaps for overlap in the order given",
    ),
    (
        "plcore.py",
        "        a, b = () if isinstance(obj, (str, bytes)) else obj\n",
        "        a, b = () if isinstance(obj, (str, bytes)) else obj[:2]\n",
        "tests/test_gaps.py::test_merge_rejects_bad_intervals",
        "new: an interval's items past the second silently dropped",
    ),
    (
        "plcore.py",
        "        a, b = () if isinstance(obj, (str, bytes)) else obj\n",
        "        a, b = obj\n",
        "tests/test_gaps.py::test_merge_rejects_bad_intervals",
        "new: a two-character string unpacked into an interval",
    ),
    (
        "gaps.py",
        "    if ar[0] < 0 or ar[0] * br[1] >= br[0] * ar[1] or br[0] > br[1]:\n",
        "    if ar[0] < 0 or ar[0] * br[1] >= br[0] * ar[1]:\n",
        "tests/test_gaps.py::test_gap_sets_at_the_edges_match_fraction_reference",
        "new: an interval ending past 1 accepted",
    ),
    (
        "gaps.py",
        "                if br[0] * pd > pn * br[1]:\n",
        "                if True:\n",
        "tests/test_gaps.py::test_merge_nested_absorbed",
        "new: merge_gaps cutting a gap back to a nested interval's end",
    ),
    (
        "gaps.py",
        "            ends += (y, y)\n",
        "            pass\n",
        "tests/test_gaps.py::test_equiv_gap_endpoint_at_a_crossing_value",
        "7eddd77: equiv_test's crossing dropped",
    ),
    (
        "gaps.py",
        "            y = (n, m) if d0 > 0 else (-n, -m)\n",
        "            y = (a * d + c * b, 2 * b * d)\n",
        "tests/test_gaps.py::test_equiv_gap_endpoint_at_a_crossing_value",
        "7eddd77: equiv_test's crossing at (f0 + f1)/2",
    ),
    (
        "gaps.py",
        "            y = (n, m) if d0 > 0 else (-n, -m)\n",
        "            y = (n, m)\n",
        "tests/test_gaps.py::test_gap_calculus_matches_fraction_reference",
        "new: equiv_test's crossing kept with a negative denominator",
    ),
    (
        "gaps.py",
        "        self._store(rows, InvariantViolation)\n",
        "        self.__dict__[\"gaps\"] = tuple(iv for iv, _, _ in rows)\n",
        "tests/test_gaps.py::test_merged_gaps_enter_with_their_overlap_checked",
        "new: merge_gaps' way into GapSet skipping the overlap check",
    ),
    (
        "gaps.py",
        "        covered += b - a\n",
        "        covered = b - a\n",
        "tests/test_gaps.py::test_gap_calculus_matches_fraction_reference",
        "new: collapse_map's level forgetting all but the last gap before it",
    ),
    (
        "gaps.py",
        "    if not isinstance(f, PLMono) or not isinstance(h, PLMono) or not isinstance(g, GapSet):\n",
        "    if not isinstance(f, PLMono) or not isinstance(h, PLMono):\n",
        "tests/test_gaps.py::test_equiv_worked_cases",
        "new: equiv_test taking a gap argument that is not a GapSet",
    ),
    (
        "gaps.py",
        "    if not isinstance(g, GapSet):\n        raise InputError(f\"expected a GapSet, got {type(g).__name__}\")\n",
        "",
        "tests/test_gaps.py::test_equiv_worked_cases",
        "new: collapse_map, isolated_points and extreme_pair_all reading a list's gaps",
    ),
    (
        "explorer.py",
        "if old is None or c < old[0]:",
        "if old is None or c <= old[0]:",
        "tests/test_explorer.py::test_nearest_net_point_matches_fraction_reference",
        "13ec06e: the net DP's tie-break reversed",
    ),
    (
        "explorer.py",
        "        for v in range(max(s, low), top):\n",
        "        for v in range(s, top):\n",
        "tests/test_explorer.py::test_net_moves_match_their_definition",
        "new: the net moves' lower bound on the last of the n-1 values dropped",
    ),
    (
        "explorer.py",
        "    return _moves_from(state, m, 0, (), n, low)\n",
        "    return _moves_from(state, m, 0, (), n + 1, low)\n",
        "tests/test_explorer.py::test_net_moves_match_their_definition",
        "new: the net moves' rise budget one too large",
    ),
    (
        "explorer.py",
        "    ends = [-1, *sorted(cuts), places]\n",
        "    ends = [-1, *sorted(cuts), places + 1]\n",
        "tests/test_explorer.py::test_sampler_determinism",
        "new: the composition sampler's final part one too large",
    ),
    (
        "explorer.py",
        "    if not 0 <= args.count <= 1000 or not 1 <= args.n <= 16:\n",
        "    if not 0 <= args.count <= 1000 or args.n > 16:\n",
        "tests/test_explorer.py::test_cli_work_limits_exit_2_with_one_error_line",
        "new: sample accepting --n below 1",
    ),
    (
        "explorer.py",
        "    if args.grid < 0:\n",
        "    if args.grid < -1:\n",
        "tests/test_explorer.py::test_cli_negative_grid_exits_2_before_any_work",
        "new: dist --grid -1 reading its inputs before it is refused",
    ),
    (
        "quotdist.py",
        "bisect_left(br, x - bound, lo, hi)",
        "bisect_right(br, x - bound, lo, hi)",
        "tests/test_quotdist.py::test_oracle_reflexive",
        "8367df0: the oracle band's low end by bisect_right",
    ),
    (
        "quotdist.py",
        "bisect_right(br, x + bound, lo, hi)",
        "bisect_left(br, x + bound, lo, hi)",
        "tests/test_quotdist.py::test_oracle_reflexive",
        "8367df0: the oracle band's high end by bisect_left",
    ),
    (
        "quotdist.py",
        "        for y, row in diag[0].get(p, ()):\n",
        "        for y, row in ():\n",
        "tests/test_quotdist.py::test_oracle_matches_edge_extra_reference",
        "8ac120e: the oracle's loop over one side's diagonal kinks dropped",
    ),
    (
        "quotdist.py",
        "repeat(inc, length - 1)",
        "repeat(inc, length)",
        "tests/test_quotdist.py::test_oracle_matches_edge_extra_reference",
        "6f0edbd: the oracle's run expansion one value too long",
    ),
    (
        "quotdist.py",
        "        for q, items in diag[1].items():\n",
        "        for q, items in ():\n",
        "tests/test_quotdist.py::test_oracle_matches_edge_extra_reference",
        "8ac120e: the oracle's loop over the other side's diagonal kinks dropped",
    ),
    (
        "quotdist.py",
        "    bound = max([bound] + [abs(y - r[step]) for side in diag for step, items in side.items() for y, r in items])\n",
        "",
        "tests/test_quotdist.py::test_oracle_band_matches_full_grid_dp",
        "8367df0: the oracle's bound without the kink extras",
    ),
    (
        "quotdist.py",
        "kinks.append((step + 1,",
        "kinks.append((step,",
        "tests/test_quotdist.py::test_oracle_runs_match_pointwise_setup",
        "new: the oracle's kinks filed one grid step early",
    ),
    (
        "__init__.py",
        '_SUBMODULES = ("serialize", "explorer")',
        '_SUBMODULES = ("explorer",)',
        "tests/test_startup.py::test_cli_loads_only_what_the_subcommand_uses",
        "e759b48: the package hook without serialize",
    ),
    (
        "__init__.py",
        '_SUBMODULES = ("serialize", "explorer")',
        '_SUBMODULES = ("serialize",)',
        "tests/test_startup.py::test_importing_serialize_or_explorer_loads_neither_layer",
        "e759b48: the package hook without explorer",
    ),
    (
        "plcore.py",
        "        if isinstance(other, PLMono):\n",
        "        if type(other) is type(self):\n",
        "tests/test_values.py::test_kernel_built_homeo_equals_fraction_built_mono",
        "new: a PLHomeo no longer equal to the PLMono of the same function",
    ),
    (
        "quotdist.py",
        "end = min(count, (a1 * x0d - x0n * b1) * k // (b1 * x0d) + 1)",
        "end = min(count, (a1 * x0d - x0n * b1) * k // (b1 * x0d))",
        "tests/test_quotdist.py::test_runs_match_pointwise_sweep",
        "6f0edbd: a run of _runs ending one point early",
    ),
    (
        "quotdist.py",
        "for n, d in (first, inc) for g in (gcd(n, d),)]",
        "for n, d in (first, inc) for g in (1,)]",
        "tests/test_quotdist.py::test_runs_match_pointwise_sweep",
        "13ec06e: _runs without its gcd step",
    ),
    (
        "plcore.py",
        "    if type(v) is not int or v < 1:\n",
        "    if v < 1:\n",
        "tests/test_quotdist.py::test_oracle_errors",
        "2037104: brute_oracle taking True as grid resolution 1 (the check is _count's now)",
    ),
    (
        "plcore.py",
        "    except TypeError as exc:\n        raise InputError(f\"{what}, got {obj!r:.60}\") from exc\n",
        "    except ValueError as exc:\n        raise InputError(f\"{what}, got {obj!r:.60}\") from exc\n",
        "tests/test_namespace.py::test_none_for_every_parameter_returns_or_raises_input_error",
        "new: _iter letting the TypeError of a non-iterable through",
    ),
    (
        "explorer.py",
        "        obj = MonoTuple((obj,))\n",
        "        pass\n",
        "tests/test_explorer.py::test_plot_bytes_are_pinned",
        "new: the plot helper not reading a map as a one-component tuple",
    ),
    (
        "explorer.py",
        "        lo = -ONE if kind == \"coord\" else ZERO\n",
        "        lo = ZERO\n",
        "tests/test_explorer.py::test_plot_bytes_are_pinned",
        "new: a coordinate drawn on the [0, 1] scale of a map",
    ),
    (
        "quotdist.py",
        "    if not d:\n",
        "    if d < 0:\n",
        "tests/test_quotdist.py::test_quot_dist_matches_plain_bisection",
        "991bc58: the zero check skipped",
    ),
    (
        "quotdist.py",
        "    j = -(-(dn * hd << k) // (dd * hn)) - 1\n",
        "    j = -(-(dn * hd << k) // (dd * hn))\n",
        "tests/test_quotdist.py::test_quot_dist_matches_plain_bisection",
        "be58b57: the int bracket's index off by one",
    ),
    (
        "quotdist.py",
        "    k += width > unit << k\n",
        "    k += width > unit << (k + 1)\n",
        "tests/test_quotdist.py::test_quot_dist_matches_plain_bisection",
        "be58b57: the int bracket's width test one halving short",
    ),
    (
        "quotdist.py",
        "    k += width > unit << k\n",
        "    k += width >= unit << k\n",
        "tests/test_quotdist.py::test_pair_at_a_tiny_tolerance_takes_one_step_per_halving",
        "new: a bracket as wide as tol halved once more",
    ),
    (
        "quotdist.py",
        "    for own, other in (nodes, nodes[::-1]):\n",
        "    for own, other in (nodes,):\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the exact value's sweep over one side's lines skipped",
    ),
    (
        "quotdist.py",
        "            v0, c0 = other[q]\n",
        "            v0, c0 = other[q + 1]\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the crossing cell's near node taken one to the right",
    ),
    (
        "quotdist.py",
        "                q, lo, c0 = q + 1, hi, c1\n",
        "                q, c0 = q + 1, c1\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the walk's step leaving the near node's differences behind",
    ),
    (
        "quotdist.py",
        "                if max(hi) + min(hi) <= 0:\n",
        "                if max(hi) - min(hi) <= 0:\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the walk's sign of P - N read as max - min",
    ),
    (
        "quotdist.py",
        "            S = c * c0 * c1\n",
        "            S = c * c0\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the crossing cell's scale without its right node's lcm",
    ),
    (
        "quotdist.py",
        "            if min(c1 * max(lo), -c0 * min(hi)) * best_d <= best * S:\n",
        "            if min(c1 * max(lo), c0 * max(hi)) * best_d <= best * S:\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the line cap read from the largest far difference",
    ),
    (
        "quotdist.py",
        "            if min(c1 * max(lo), -c0 * min(hi)) * best_d <= best * S:\n",
        "            if min(max(lo), -min(hi)) * best_d <= best * S:\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the line cap compared without its scale factors",
    ),
    (
        "quotdist.py",
        "                        num, den = x1 * e0 - x0 * e1, x0 + e0 - x1 - e1\n",
        "                        num, den = x1 * e0 - x0 * e1, x1 + e1 - x0 - e0\n",
        "tests/test_quotdist.py::test_decision_false_just_below_the_floor",
        "new: the in-cell crossing's denominator with its sign flipped",
    ),
    (
        "quotdist.py",
        "        if t0 == t1 and x0 != x1:  # a plateau of first that second crosses at t\n",
        "        if t0 == t1:  # a plateau of first that second crosses at t\n",
        "tests/test_quotdist.py::test_orbit_bound_matches_built_reparameterization_on_net_points",
        "new: the orbit bound's ramp test taking every vertex of second's walk",
    ),
    (
        "quotdist.py",
        "(t - Fraction(*t1s[k - 1])) / 3)",
        "(t - Fraction(*t0s[k - 1])) / 3)",
        "tests/test_quotdist.py::test_orbit_bound_matches_built_reparameterization_on_net_points",
        "new: a ramp's gap measured from the far end of the level below",
    ),
    (
        "quotdist.py",
        "Fraction(*t0s[k + 1]) / 3",
        "Fraction(*t1s[k + 1]) / 3",
        "tests/test_quotdist.py::test_orbit_bound_matches_built_reparameterization_on_net_points",
        "new: the ramp at t = 0 measured to the far end of the next level",
    ),
    (
        "quotdist.py",
        "(t - Fraction(*t1s[k - 1])) / 3)",
        "(t - Fraction(*t1s[k - 1])) / 2)",
        "tests/test_quotdist.py::test_orbit_bound_matches_built_reparameterization_on_net_points",
        "new: a ramp taking half its gap instead of a third",
    ),
    (
        "quotdist.py",
        "Fraction(*t0s[k + 1]) / 3",
        "Fraction(*t0s[k + 1]) / 2",
        "tests/test_quotdist.py::test_orbit_bound_matches_built_reparameterization_on_net_points",
        "new: the ramp at t = 0 taking half its gap instead of a third",
    ),
    (
        "serialize.py",
        "    except ValueError as exc:  # only Pythons with the digit limit raise it here\n",
        "    except TypeError as exc:  # only Pythons with the digit limit raise it here\n",
        "tests/test_explorer.py::test_cli_result_beyond_the_digit_limit_exits_2",
        "new: a result beyond the int-to-str digit limit ending in a traceback",
    ),
    (
        "plcore.py",
        "    def __reduce__(self):\n        return type(self), self._key()\n",
        "    def _reduce(self):\n        return type(self), self._key()\n",
        "tests/test_values.py::test_pickle_and_deepcopy_rerun_the_constructor_checks",
        "new: pickle and copy restoring a value's fields without its checks",
    ),
]


def _pytest(src: Path, selectors: list[str], cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    args = [str(ROOT / s) for s in selectors]
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def _copy(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        selectors = sorted({row[3] for row in MUTANTS})
        t0 = time.perf_counter()
        base = _pytest(_copy(tmp), selectors, tmp)
        print(f"unmutated copy: {'pass' if base.returncode == 0 else 'FAIL'} ({time.perf_counter() - t0:.1f} s)")
        if base.returncode != 0:
            print(base.stdout[-3000:])
            return 1
        shutil.rmtree(Path(tmp) / "src")
        for module, old, new, selector, origin in MUTANTS:
            src = _copy(tmp)
            path = src / "plmonoid" / module
            text = path.read_text()
            found = text.count(old)
            if found != 1:
                print(f"STALE    {origin}: old text found {found} times in {module}")
                failures += 1
            else:
                path.write_text(text.replace(old, new))
                t0 = time.perf_counter()
                run = _pytest(src, [selector], tmp)
                verdict = {0: "SURVIVED", 1: "killed  "}.get(run.returncode, f"ERROR {run.returncode}")
                print(f"{verdict} {origin} [{selector}] ({time.perf_counter() - t0:.1f} s)")
                if run.returncode != 1:
                    failures += 1
                    if run.returncode:
                        print(run.stdout[-3000:])
            shutil.rmtree(src)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
