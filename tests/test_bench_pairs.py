"""``scripts/bench_pairs.py``'s table: wins, ties and quartiles per metric,
each in its metric's direction, on hand-made runs (no clone, no run)."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "scripts"))
from bench_pairs import _table  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "items_per_s", "unit": "items/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
]}


def runs_of(side):
    """A side's runs, one per pair, from ``{metric: [value per pair]}``."""
    return [{"pad": pad, **dict(zip(side, values))}
            for pad, values in enumerate(zip(*side.values()))]


# pair by pair: items_per_s wins, ties, wins and wins; peak_rss_mb wins,
# ties, loses and loses, so a flipped direction would give it two wins
RUNS = {
    "base": runs_of({"items_per_s": [10.0, 10.0, 11.0, 9.0],
                     "peak_rss_mb": [30.0, 30.0, 30.0, 31.0]}),
    "change": runs_of({"items_per_s": [12.0, 10.0, 12.0, 13.0],
                       "peak_rss_mb": [29.0, 30.0, 32.0, 33.0]}),
}


def test_wins_and_ties_count_in_each_metrics_direction():
    metrics = _table(SPEC, RUNS)["metrics"]
    assert {name: (m["wins"], m["ties"]) for name, m in metrics.items()} == {
        "items_per_s": (3, 1), "peak_rss_mb": (1, 1),
    }


def test_each_side_gets_its_quartiles_and_the_metrics_unit_and_direction():
    table = _table(SPEC, RUNS)
    # statistics.quantiles' exclusive method: q1 and q3 at ranks 1.25 and 3.75
    assert table["metrics"]["items_per_s"] == {
        "unit": "items/s", "better": "higher",
        "base": {"median": 10.0, "q1": 9.25, "q3": 10.75},
        "change": {"median": 12.0, "q1": 10.5, "q3": 12.75},
        "wins": 3, "ties": 1,
    }
    assert table["metrics"]["peak_rss_mb"]["better"] == "lower"
    assert table["metrics"]["peak_rss_mb"]["change"] == {"median": 31.0, "q1": 29.25, "q3": 32.75}
    assert table["runs"] is RUNS
