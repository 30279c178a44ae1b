"""Per-layer metrics: which spans and counts each one is made of.

A layer is one ``orbiton`` module.  Times are the summed span durations of
the named calls within one traced pass (median over traced passes); counts
are exact per-pass counts, identical in every pass of a run.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# metric -> (span names, tag or None for every tag)
SPAN_SECONDS = {
    "fredholm.index_s": (("fredholm.numerical_index",), None),
    "fredholm.index_s.N1024": (("fredholm.numerical_index",), "N1024"),
    "fredholm.index_s.N2048": (("fredholm.numerical_index",), "N2048"),
    "fredholm.assemble_s": (("fredholm.assemble_operator",), None),
    "fredholm.build_grid_s": (("fredholm.build_grid",), None),
    "fredholm.oracle_s": (("fredholm.ode_kernel_oracle",), None),
    "fredholm.verify_s": (("fredholm.parity_check",
                           "fredholm.kernel_cosine"), None),
    "coadjoint.sample_orbit_s": (("coadjoint.sample_orbit",), None),
    "coadjoint.orbit_dimension_s": (("coadjoint.orbit_dimension",), None),
    "orbit_atlas.model_s": (("orbit_atlas.orbit_model",), None),
    "orbit_atlas.membership_s.curve": (("orbit_atlas.orbit_membership",),
                                       "curve"),
    "orbit_atlas.membership_s.closed": (("orbit_atlas.orbit_membership",),
                                        "closed"),
    "orbit_atlas.tangency_s": (("orbit_atlas.check_tangency",), None),
    "orbit_atlas.rank_at_s": (("orbit_atlas.distribution_rank_at",), None),
    "classify.md4_s": (("classify.classify_md4",), "conj"),
    "classify.md_bar_s": (("classify.classify_md_bar",), None),
    "classify.exponential_s": (("classify.is_exponential",), None),
    "classify.probe_s": (("classify.classify_md4",), "probe"),
    "lie_core.change_basis_s": (("lie_core.change_basis",), None),
    "kindex.winding_s": (("kindex.winding_number",), None),
    "kindex.six_term_s": (("kindex.six_term_check",), None),
    "kindex.snf_s": (("kindex.smith_normal_form",), None),
    "cli.main_s": (("cli.main",), None),
}

# metric -> (call name, tag or None for every tag)
CALL_COUNTS = {
    "fredholm.index_calls": ("fredholm.numerical_index", None),
    "coadjoint.sample_orbit_calls": ("coadjoint.sample_orbit", None),
    "coadjoint.orbit_dimension_calls": ("coadjoint.orbit_dimension", None),
    "orbit_atlas.membership_calls": ("orbit_atlas.orbit_membership", None),
    "classify.md4_calls": ("classify.classify_md4", "conj"),
}

# Counts the workloads add themselves (Recorder.add).
ADDED_COUNTS = ("fredholm.matrix_bytes", "coadjoint.points",
                "classify.conj_miss", "classify.probe_miss",
                "cli.report_bytes")


def call_count(counts: dict, name: str, tag: str | None) -> int:
    if tag is not None:
        return counts.get(f"calls:{name}:{tag}", 0)
    prefix = f"calls:{name}:"
    return sum(v for k, v in counts.items() if k.startswith(prefix))


def span_totals(spans) -> dict:
    """{pass_id: {(name, tag): seconds}} plus each pass's own duration."""
    per_pass = defaultdict(lambda: defaultdict(float))
    for _id, name, tag, start, end, _parent, pass_id in spans:
        per_pass[pass_id][(name, tag)] += end - start
    return per_pass


def layer_metrics(spans, counts: dict, minima: dict, peak_bytes: int) -> dict:
    """Every per-layer value measured in the traced passes.

    ``counts``, ``minima`` and ``peak_bytes`` come from one traced pass;
    the run has already checked that the counts repeat in every pass.
    """
    totals = span_totals(spans)
    out = {}
    for metric, (names, tag) in SPAN_SECONDS.items():
        out[metric] = statistics.median(
            sum(v for (n, t), v in by_name.items()
                if n in names and (tag is None or t == tag))
            for by_name in totals.values())
    for metric, (name, tag) in CALL_COUNTS.items():
        out[metric] = call_count(counts, name, tag)
    for metric in ADDED_COUNTS:
        out[metric] = counts.get(metric, 0)
    points = out["coadjoint.points"]
    out["coadjoint.us_per_point"] = (
        1e6 * out["coadjoint.sample_orbit_s"] / points if points else 0.0)
    out["fredholm.gap_ratio_min"] = minima.get("fredholm.gap_ratio_min", 0.0)
    out["fredholm.index_peak_mb"] = peak_bytes / 2 ** 20

    # Share of each pass covered by its call spans (the rest is the
    # benchmark's own glue between calls).
    covered = [sum(v for (n, _), v in by_name.items() if n != "pass")
               / by_name[("pass", None)] for by_name in totals.values()]
    out["trace.span_coverage"] = statistics.median(covered)
    return out
