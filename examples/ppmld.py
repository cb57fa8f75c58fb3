"""PPMLD via the black-box swap (Sections 1 and 9).

The paper claims its privacy machinery works for *any* group query because
query answering is a black box.  This example demonstrates it by solving
privacy-preserving meeting location determination (PPMLD): instead of
minimizing distance to the users' *current* locations, each user submits a
*preferred* meeting location, and the query returns the POIs minimizing
aggregate distance to the preferences — the semantics of Bilogrevic et al.
No protocol code changes: the preferred locations simply take the place of
the real locations in the location sets, and a custom aggregate shows that
even the cost function is pluggable.

Run:  python examples/ppmld.py
"""

from __future__ import annotations


from repro import LSPServer, PPGNNConfig, run_ppgnn
from repro.datasets import load_sequoia
from repro.errors import ConfigurationError
from repro.geometry import Point
from repro.gnn.aggregate import Aggregate, get_aggregate, register_aggregate


def ensure_fairness_aggregate():
    """sum + max: total travel, with a penalty for the worst-off member.

    Monotone in every distance, so it drops into the MBM bound, the answer
    sanitation, and the inequality attack unchanged.
    """
    try:
        return get_aggregate("fair")
    except ConfigurationError:
        def combine(distances):
            values = list(distances)  # the iterable is consumed only once
            return float(sum(values)) + float(max(values))

        fair = Aggregate("fair", combine, lambda m: m.sum(axis=1) + m.max(axis=1))
        register_aggregate(fair)
        return fair


def main() -> None:
    ensure_fairness_aggregate()
    pois = load_sequoia(10_000)

    # Each user states a *preferred* meeting area (not their location!).
    preferences = [
        Point(0.21, 0.34),  # near the waterfront
        Point(0.25, 0.31),  # same neighbourhood
        Point(0.64, 0.70),  # across town
        Point(0.30, 0.40),  # midtown
        Point(0.28, 0.36),
    ]

    config = PPGNNConfig(d=15, delta=60, k=5, theta0=0.05, keysize=256)
    lsp = LSPServer(pois, aggregate_name="fair", seed=9)

    print("PPMLD: 5 users negotiate a meeting place from private preferences")
    print(f"aggregate = sum + max (fairness), d={config.d}, delta={config.delta}\n")

    result = run_ppgnn(lsp, preferences, config, seed=17)

    print("Chosen meeting places (best first):")
    for rank, answer in enumerate(result.answers, start=1):
        poi = lsp.engine.poi_by_id(answer.poi_id)
        dists = [pref.distance_to(poi.location) for pref in preferences]
        print(f"  {rank}. {poi}  total={sum(dists):.3f}  worst={max(dists):.3f}")

    print("\nPrivacy guarantees carried over unchanged:")
    print(f"  each preference hidden among d={config.d} decoys (Privacy I)")
    print(f"  joint query hidden among {result.delta_prime} candidates (Privacy II)")
    print(f"  exactly {len(result.answers)} POIs disclosed (Privacy III)")
    print("  collusion-resistant via answer sanitation (Privacy IV)")


if __name__ == "__main__":
    main()
