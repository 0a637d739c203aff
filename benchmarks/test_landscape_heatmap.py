"""Controlled MP landscape over the variance-bias plane (extension).

The controlled-experiment companion to Figures 2-4: a (bias, sigma) grid
probed with identical timing policy against SA and P.  Checks the same
region story as the scatter plots, free of population sampling noise:

- under SA, MP grows with |bias| (the large-bias row dominates);
- under P, high-variance columns retain more MP than low-variance
  columns at medium/large bias (variance is the evasion dimension).
"""

from conftest import record

from repro.analysis.landscape import sweep_landscape


def test_landscape_heatmap(benchmark, context, results_dir):
    challenge = context.challenge

    def run():
        sa = sweep_landscape(
            challenge, "SA",
            bias_values=(-4.0, -3.0, -2.0, -1.0),
            std_values=(0.1, 0.6, 1.2),
            probes=3, seed=41,
        )
        p = sweep_landscape(
            challenge, "P",
            bias_values=(-4.0, -3.0, -2.0, -1.0),
            std_values=(0.1, 0.6, 1.2),
            probes=3, seed=41,
        )
        return sa, p

    sa, p = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        results_dir, "landscape_heatmap", sa.to_text() + "\n\n" + p.to_text()
    )
    # SA: the largest-bias row dominates (means over sigma columns).
    sa_rows = sa.row_means()
    assert sa_rows[0] == max(sa_rows), "SA should be weakest against bias -4"
    # SA: bias is what matters; its peak bias is the extreme row.
    assert sa.peak[0] == -4.0
    # P: at medium/large bias, high variance beats low variance.
    p_grid = p.mp
    medium_rows = slice(0, 3)  # bias -4, -3, -2
    low_var = float(p_grid[medium_rows, 0].mean())
    high_var = float(p_grid[medium_rows, 2].mean())
    assert high_var > low_var, (
        f"P-scheme: high-variance mean MP {high_var:.3f} should exceed "
        f"low-variance {low_var:.3f}"
    )
    # P is uniformly a better defense than SA at the extreme-bias corner.
    assert p.mp[0, 0] < 0.5 * sa.mp[0, 0]
