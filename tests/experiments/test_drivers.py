"""Integration tests for the registered figure experiments.

These run each experiment's registered spec and check the *shape* of
the result the paper reports (who wins, monotone trends,
normalisation), not absolute values: once at a reduced scale, and once
at (or near) the paper's scale in the ``test_paper_scale_*`` tests —
n = 50 as on PlanetLab for Figs. 1, 3, 4, 10 and 11; n = 24 for the
churn sweeps of Fig. 2 and n = 120 (the paper has 295) for the sampling
Figs. 5-8, so the suite stays fast.  Every run is
``run_spec(default_spec(name).override(...))`` with the sizes, seed and
parameters spelled out, so a change to a registered default moves no
assertion here.
"""

import numpy as np
import pytest

from repro.experiments.harness import ExperimentResult, Series, normalize_against
from repro.scenario import CheatingSpec, ChurnSpec, default_spec, run_spec


class TestHarness:
    def test_series_and_result(self):
        result = ExperimentResult("figX", "demo", "k", "cost")
        result.add_point("a", 1, 2.0)
        result.add_point("a", 2, 3.0)
        result.add_point("b", 1, 4.0)
        assert result.series["a"].y == [2.0, 3.0]
        table = result.table()
        assert "k" in table and "a" in table
        as_dict = result.as_dict()
        assert as_dict["series"]["b"]["y"] == [4.0]

    def test_normalize_against(self):
        values = {"br": 2.0, "rnd": 6.0}
        normalized = normalize_against(values, "br")
        assert normalized == {"br": 1.0, "rnd": 3.0}

    def test_table_renders_missing_x_values_as_dash(self):
        """Series without a point at some x deterministically render '-'."""
        result = ExperimentResult("figX", "demo", "k", "cost")
        result.add_point("a", 1, 2.0)
        result.add_point("a", 2, 3.0)
        result.add_point("b", 2, 4.0)  # no point at x=1
        lines = result.table().splitlines()
        assert lines[0] == "k\ta\tb"
        assert lines[1] == "1\t2\t-"
        assert lines[2] == "2\t3\t4"

    def test_table_tolerates_ragged_series(self):
        """A y-list shorter than its x-list renders '-' instead of raising."""
        result = ExperimentResult("figX", "demo", "k", "cost")
        result.add_point("a", 1, 2.0)
        ragged = result.series_for("b")
        ragged.x.extend([1.0, 2.0])
        ragged.y.append(5.0)  # second point lost its y
        lines = result.table().splitlines()
        assert lines[1] == "1\t2\t5"
        assert lines[2] == "2\t-\t-"


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_spec(
            default_spec("fig1-delay-ping").override(n=20, k_grid=(2, 4), seed=11, br_rounds=2)
        )

    def test_br_normalised_to_one(self, result):
        assert all(v == pytest.approx(1.0) for v in result.series["best-response"].y)

    def test_heuristics_worse_than_br(self, result):
        for label in ("k-random", "k-regular", "k-closest"):
            assert all(v >= 0.95 for v in result.series[label].y), label

    def test_full_mesh_at_least_as_good(self, result):
        assert all(v <= 1.05 for v in result.series["full-mesh"].y)

    def test_advantage_shrinks_with_k(self, result):
        """BR's edge over the heuristics is largest for small k."""
        mean_at = lambda idx: np.mean(
            [result.series[l].y[idx] for l in ("k-random", "k-regular", "k-closest")]
        )
        assert mean_at(0) >= mean_at(1) * 0.8

    def test_pyxida_variant_runs(self):
        result = run_spec(
            default_spec("fig1-delay-pyxida").override(
                n=16, k_grid=(3,), seed=1, br_rounds=2, params={"coordinate_rounds": 15}
            )
        )
        assert all(v >= 0.9 for v in result.series["k-regular"].y)

    def test_node_load_variant(self):
        result = run_spec(
            default_spec("fig1-node-load").override(n=16, k_grid=(3,), seed=1, br_rounds=2)
        )
        assert result.series["best-response"].y == [pytest.approx(1.0)]
        assert all(v >= 0.95 for v in result.series["k-closest"].y)

    def test_bandwidth_variant_ratios_below_one(self):
        result = run_spec(
            default_spec("fig1-bandwidth").override(n=16, k_grid=(3,), seed=1, br_rounds=2)
        )
        for label in ("k-random", "k-regular", "k-closest"):
            assert all(v <= 1.1 for v in result.series[label].y), label

    # The four panels at paper scale share one sweep (``fig1_paper_scale``
    # in tests/conftest.py: n = 50, k = 2..8, seed 2008, three BR rounds).

    def test_paper_scale_delay_ping(self, fig1_paper_scale):
        """Top-left: heuristics ~1.5-4x of BR at k = 2, converging as k
        grows; the full mesh at or below 1 (~0.7 at k = 2, ~1 by k = 4-5)."""
        (result, _pyxida, _load, _bandwidth), _counters = fig1_paper_scale
        assert all(abs(v - 1.0) < 1e-9 for v in result.series["best-response"].y)
        for label in ("k-random", "k-regular", "k-closest"):
            assert all(v >= 0.99 for v in result.series[label].y), label
        # The BR advantage is most pronounced at the smallest k.
        assert np.mean(
            [result.series[l].y[0] for l in ("k-random", "k-regular", "k-closest")]
        ) > 1.15
        mesh = result.series["full-mesh"].y
        assert all(v <= 1.02 for v in mesh)
        assert mesh[-1] >= 0.75

    def test_paper_scale_delay_pyxida(self, fig1_paper_scale):
        """Top-right: the ping panel's ordering, noisier because coordinate
        estimates are less accurate than ping."""
        (_ping, result, _load, _bandwidth), _counters = fig1_paper_scale
        assert all(abs(v - 1.0) < 1e-9 for v in result.series["best-response"].y)
        for label in ("k-random", "k-regular"):
            assert np.mean(result.series[label].y) > 1.05, label
        # k-Closest may tie BR under estimation noise but never dominates it.
        assert np.mean(result.series["k-closest"].y) > 0.95

    def test_paper_scale_node_load(self, fig1_paper_scale):
        """Bottom-left: BR best at every k, k-Closest no better than k-Random
        (it cannot predict past the immediate neighbour)."""
        (_ping, _pyxida, result, _bandwidth), _counters = fig1_paper_scale
        assert all(abs(v - 1.0) < 1e-9 for v in result.series["best-response"].y)
        mean = lambda label: np.mean(result.series[label].y)
        for label in ("k-random", "k-regular", "k-closest"):
            assert mean(label) > 1.0, label
        assert mean("k-closest") >= mean("k-random") * 0.9

    def test_paper_scale_bandwidth(self, fig1_paper_scale):
        """Bottom-right: every heuristic's bandwidth / BR's sits below 1."""
        (_ping, _pyxida, _load, result), _counters = fig1_paper_scale
        assert all(abs(v - 1.0) < 1e-9 for v in result.series["best-response"].y)
        for label in ("k-random", "k-regular", "k-closest"):
            series = result.series[label].y
            assert all(v <= 1.05 for v in series), label
            assert np.mean(series) < 1.0, label


class TestFig2:
    def test_efficiency_vs_k_shapes(self):
        result = run_spec(
            default_spec("fig2-efficiency-vs-k").override(
                n=14,
                k_grid=(3, 5),
                seed=2,
                epochs=5,
                churn=ChurnSpec(kind="trace", horizon=5 * 60.0),
            )
        )
        assert all(v == pytest.approx(1.0) for v in result.series["best-response"].y)
        for label in ("k-random", "k-regular", "k-closest", "hybrid-br"):
            assert all(0.0 <= v <= 1.5 for v in result.series[label].y), label

    def test_churn_rate_sweep_runs(self):
        result = run_spec(
            default_spec("fig2-churn-rate").override(
                n=12,
                k_grid=(4,),
                seed=3,
                epochs=5,
                churn=ChurnSpec(kind="parametrized", horizon=5 * 60.0),
                params={"churn_rates": [1e-3, 5e-2], "k": 4},
            )
        )
        assert "hybrid-br" in result.series
        assert len(result.series["hybrid-br"].y) == 2

    def test_paper_scale_efficiency_vs_k(self):
        """Left panel: BR best, HybridBR approaching BR as k grows, the
        structured policies above the unstructured ones."""
        result = run_spec(
            default_spec("fig2-efficiency-vs-k").override(
                n=24,
                k_grid=(3, 5, 7),
                seed=2008,
                epochs=10,
                churn=ChurnSpec(kind="trace", horizon=10 * 60.0),
            )
        )
        assert all(abs(v - 1.0) < 1e-9 for v in result.series["best-response"].y)
        mean = lambda label: np.mean(result.series[label].y)
        for label in ("k-random", "k-regular", "k-closest", "hybrid-br"):
            assert mean(label) <= 1.1, label
        assert mean("hybrid-br") >= mean("k-random")
        assert mean("k-closest") >= mean("k-regular") * 0.9
        hybrid = result.series["hybrid-br"].y
        assert hybrid[-1] >= hybrid[0] * 0.9

    def test_paper_scale_churn_rate_sweep(self):
        """Right panel (k = 5): at the highest churn rate HybridBR holds up
        at least as well as k-Random and stays competitive with BR."""
        result = run_spec(
            default_spec("fig2-churn-rate").override(
                n=24,
                k_grid=(5,),
                seed=2008,
                epochs=10,
                churn=ChurnSpec(kind="parametrized", horizon=10 * 60.0),
                params={"churn_rates": [1e-4, 1e-2, 1e-1], "k": 5},
            )
        )
        hybrid = result.series["hybrid-br"].y
        assert hybrid[-1] >= result.series["k-random"].y[-1] * 0.9
        assert hybrid[-1] >= 0.5


class TestFig3:
    def test_rewirings_decline_from_start(self):
        result = run_spec(
            default_spec("fig3-rewirings").override(n=16, k_grid=(3,), epochs=6, seed=4)
        )
        series = result.series["k=3"].y
        assert series[0] == 16  # initial wiring epoch
        assert min(series[1:]) < series[0]

    def test_epsilon_reduces_rewirings(self):
        result = run_spec(
            default_spec("fig3-epsilon").override(
                n=14, k_grid=(3,), epochs=5, seed=5, epsilon=0.1
            )
        )
        br = result.series["BR re-wirings"].y[0]
        br_eps = result.series["BR(0.1) re-wirings"].y[0]
        assert br_eps <= br + 1e-9
        # Cost stays within a reasonable factor of the full mesh.
        assert result.series["BR(0.1) cost/full mesh"].y[0] < 3.0

    def test_paper_scale_rewirings_over_time(self):
        """Left panel: the start-up epoch wires everyone, the rate drops as
        EGOIST settles, and larger k keeps re-wiring more."""
        result = run_spec(
            default_spec("fig3-rewirings").override(
                n=50, k_grid=(2, 5, 8), epochs=12, seed=2008
            )
        )
        for k in (2, 5, 8):
            series = result.series[f"k={k}"].y
            assert series[0] == 50
            assert np.mean(series[-4:]) < series[0]
        steady = lambda k: np.mean(result.series[f"k={k}"].y[-4:])
        assert steady(8) >= steady(2)

    def test_paper_scale_epsilon_comparison(self):
        """Centre and right panels: BR(0.1) re-wires much less than BR while
        its cost relative to the full mesh stays within a few percent."""
        result = run_spec(
            default_spec("fig3-epsilon").override(
                n=50, k_grid=(2, 4, 6, 8), epsilon=0.1, epochs=8, seed=2008
            )
        )
        br_rewires = np.array(result.series["BR re-wirings"].y)
        eps_rewires = np.array(result.series["BR(0.1) re-wirings"].y)
        assert np.all(eps_rewires <= br_rewires + 1e-9)
        assert eps_rewires.sum() <= br_rewires.sum() * 0.8 + 1.0
        br_cost = np.array(result.series["BR cost/full mesh"].y)
        eps_cost = np.array(result.series["BR(0.1) cost/full mesh"].y)
        assert np.all(br_cost >= 0.95)
        assert np.all(br_cost < 2.5)
        assert np.all(eps_cost <= br_cost * 1.25 + 0.05)


class TestFig4:
    def test_one_free_rider_bounded_impact(self):
        result = run_spec(
            default_spec("fig4-one-freerider").override(
                n=16, k_grid=(2, 4), seed=6, br_rounds=2
            )
        )
        for label in ("free rider", "non free riders"):
            assert all(0.7 <= v <= 1.4 for v in result.series[label].y), label

    def test_many_free_riders_bounded_impact(self):
        result = run_spec(
            default_spec("fig4-many-freeriders").override(
                n=16,
                k_grid=(2,),
                seed=7,
                br_rounds=2,
                params={"free_rider_counts": [0, 4], "k": 2},
            )
        )
        assert result.series["free riders"].y[0] == pytest.approx(1.0)
        assert all(0.6 <= v <= 1.6 for v in result.series["non free riders"].y)

    def test_paper_scale_one_free_rider(self):
        """Left panel: one rider announcing 2x-inflated costs moves both its
        own and the honest nodes' costs by a few percent at most."""
        result = run_spec(
            default_spec("fig4-one-freerider").override(
                n=50,
                k_grid=(2, 3, 4, 5, 6, 7, 8),
                cheating=CheatingSpec(free_riders=(0,), inflation=2.0),
                seed=2008,
                br_rounds=2,
            )
        )
        for label in ("free rider", "non free riders"):
            assert all(0.75 <= v <= 1.35 for v in result.series[label].y), label
        assert abs(np.mean(result.series["non free riders"].y) - 1.0) < 0.15

    def test_paper_scale_many_free_riders(self):
        """Right panel: up to a third of the nodes cheating at k = 2."""
        result = run_spec(
            default_spec("fig4-many-freeriders").override(
                n=50,
                k_grid=(2,),
                cheating=CheatingSpec(inflation=2.0),
                seed=2008,
                br_rounds=2,
                params={"free_rider_counts": [0, 4, 8, 12, 16], "k": 2},
            )
        )
        for label in ("free riders", "non free riders"):
            assert all(0.7 <= v <= 1.45 for v in result.series[label].y), label


class TestFig5to8:
    def test_sampling_curves(self):
        result = run_spec(
            default_spec("fig5-sampling-br").override(
                n=50,
                k_grid=(3,),
                seed=8,
                params={"k": 3, "sample_sizes": [6, 14], "trials": 2},
            )
        )
        for label in ("BR", "BRtp", "k-random", "k-regular", "k-closest"):
            assert label in result.series
            assert all(v >= 0.85 for v in result.series[label].y), label
        # BR-with-sampling should beat the sampled heuristics on average.
        br_mean = np.mean(result.series["BR"].y)
        worst = max(
            np.mean(result.series[l].y) for l in ("k-random", "k-regular")
        )
        assert br_mean <= worst + 1e-9

    def test_other_base_graphs_run(self):
        result = run_spec(
            default_spec("fig6-sampling-random").override(
                n=40,
                k_grid=(3,),
                seed=9,
                params={"k": 3, "sample_sizes": [8], "trials": 1},
            )
        )
        assert result.figure == "fig6"

    @pytest.mark.parametrize(
        "base_policy", ["best-response", "k-random", "k-regular", "k-closest"]
    )
    def test_paper_scale_sampling(self, base_policy):
        """A newcomer joining a 120-node overlay from a sample of m = 6..20:
        BR within the sample tracks BR without sampling and beats the
        heuristics picking within the same samples."""
        experiment = {
            "best-response": "fig5-sampling-br",
            "k-random": "fig6-sampling-random",
            "k-regular": "fig7-sampling-regular",
            "k-closest": "fig8-sampling-closest",
        }[base_policy]
        result = run_spec(
            default_spec(experiment).override(
                n=120,
                k_grid=(3,),
                seed=2008,
                params={"k": 3, "radius": 2, "sample_sizes": [6, 10, 14, 20], "trials": 3},
            )
        )
        assert result.figure == {
            "best-response": "fig5",
            "k-random": "fig6",
            "k-regular": "fig7",
            "k-closest": "fig8",
        }[base_policy]
        mean = lambda label: np.mean(result.series[label].y)
        assert mean("BR") < 1.6
        assert mean("BRtp") < 1.6
        worst_heuristic = max(mean(l) for l in ("k-random", "k-regular"))
        assert min(mean("BR"), mean("BRtp")) <= worst_heuristic + 1e-9
        # The unsampled BR is the reference, so every ratio is >= ~1.
        for label, series in result.series.items():
            assert all(v > 0.8 for v in series.y), label


class TestAppsAndOverhead:
    def test_fig10_gain_increases_with_k(self):
        result = run_spec(
            default_spec("fig10-multipath").override(
                n=16, k_grid=(2, 6), seed=10, br_rounds=2, params={"pairs_per_k": 30}
            )
        )
        parallel = result.series["source establ. parallel connections"].y
        ceiling = result.series["peers allow multipath redirections"].y
        assert parallel[1] >= parallel[0] * 0.9
        assert all(c >= p * 0.9 for c, p in zip(ceiling, parallel))

    def test_fig11_disjoint_paths_increase_with_k(self):
        result = run_spec(
            default_spec("fig11-disjoint").override(
                n=16, k_grid=(2, 6), seed=11, br_rounds=2, params={"pairs_per_k": 30}
            )
        )
        series = result.series["disjoint paths"].y
        assert series[1] > series[0]

    def test_overhead_table_matches_formulas(self):
        result = run_spec(default_spec("overheads").override(n=50, k_grid=(5,), seed=0))
        assert result.series["ping measurement (bps)"].y[0] == pytest.approx(
            (50 - 5 - 1) * 320 / 60.0
        )
        assert result.series["link-state protocol (bps)"].y[0] == pytest.approx(
            (192 + 32 * 5) / 20.0
        )
        assert result.series["scalability gain"].y[0] == pytest.approx(49 / 5)

    def test_paper_scale_fig10_multipath_gain(self):
        """Both curves grow with k, the multipath-redirection ceiling lies
        above the parallel-connection gain, and both exceed one path."""
        result = run_spec(
            default_spec("fig10-multipath").override(
                n=50,
                k_grid=(2, 3, 4, 5, 6, 7, 8),
                seed=2008,
                br_rounds=2,
                params={"pairs_per_k": 80},
            )
        )
        parallel = result.series["source establ. parallel connections"].y
        ceiling = result.series["peers allow multipath redirections"].y
        assert all(c >= p * 0.95 for c, p in zip(ceiling, parallel))
        assert parallel[-1] >= parallel[0] * 0.95
        assert ceiling[-1] > ceiling[0]
        assert ceiling[-1] > 1.5
        assert parallel[-1] > 1.0

    def test_paper_scale_fig11_disjoint_paths(self):
        """Disjoint overlay paths grow roughly linearly with k."""
        k_values = (2, 3, 4, 5, 6, 7, 8)
        result = run_spec(
            default_spec("fig11-disjoint").override(
                n=50, k_grid=k_values, seed=2008, br_rounds=2, params={"pairs_per_k": 80}
            )
        )
        series = result.series["disjoint paths"].y
        assert all(b >= a - 0.2 for a, b in zip(series, series[1:]))
        assert series[-1] >= 2.0 * series[0]
        assert np.corrcoef(k_values, series)[0, 1] > 0.9

    def test_paper_scale_overheads(self):
        """Section 4.3 at n = 50: every overhead well under a kilobit per
        second per node, coordinates cheaper than ping, the n*k vs n*(n-1)
        monitoring gain, and simulated link-state traffic of the same
        order as the analytic figure."""
        k_values = (2, 3, 4, 5, 6, 7, 8)
        result = run_spec(
            default_spec("overheads").override(
                n=50,
                k_grid=k_values,
                epoch_length=60.0,
                announce_interval=20.0,
                epochs=2,
                seed=2008,
                params={"validate_with_engine": True},
            )
        )
        ping = result.series["ping measurement (bps)"].y
        coord = result.series["coordinate measurement (bps)"].y
        assert max(ping) < 300.0
        assert max(coord) < 50.0
        assert max(result.series["link-state protocol (bps)"].y) < 30.0
        assert all(c < p for c, p in zip(coord, ping))
        gains = result.series["scalability gain"].y
        assert gains[0] > gains[-1]
        assert abs(gains[k_values.index(5)] - 49 / 5) < 1e-6
        simulated = result.series["link-state measured (bps, simulated)"].y
        assert all(s < 50.0 for s in simulated)
