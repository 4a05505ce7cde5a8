"""Sensor-field scenario: periodic environmental monitoring.

A clustered field of temperature sensors streams readings to a gateway.
The example compares power regimes on the same field, sustains the
achieved rate with the frame simulator, and computes a median through
the binary-search counting reduction of Section 3.1.

Run:  python examples/sensor_field.py
"""

import numpy as np

from repro import (
    MAX,
    Pipeline,
    PipelineConfig,
    SINRModel,
    cluster_points,
    compare_power_modes,
    median_via_counting,
)


def main() -> None:
    model = SINRModel(alpha=3.0, beta=1.0)
    # Ten equipment clusters of eight sensors each on a factory floor.
    field = cluster_points(10, 8, cluster_std=0.01, side=1.0, rng=7)
    print(f"deployment: {len(field)} sensors in 10 clusters")

    # --- 1. Which power regime should the gateway configure? ---------
    comparison = compare_power_modes(field, model=model)
    print()
    print(comparison.table())

    # --- 2. Sustained max-temperature monitoring ----------------------
    config = PipelineConfig(n=len(field), power="oblivious", num_frames=30, seed=7)
    result = Pipeline(config, model=model).run(field, function=MAX)
    sim = result.simulation
    print()
    print("max-aggregation stream (oblivious power):")
    print(
        f"  {sim.frames_completed}/{sim.frames_injected} frames, "
        f"mean latency {sim.mean_latency:.1f} slots, "
        f"max backlog {sim.max_backlog} buffered partials, "
        f"values correct: {sim.values_correct}"
    )

    # --- 3. Median reading via counting aggregations -------------------
    rng = np.random.default_rng(7)
    readings = rng.normal(21.0, 2.5, size=len(field))
    median = median_via_counting(
        readings, tree=result.tree, schedule=result.schedule, tolerance=1e-3
    )
    print()
    print(
        f"median temperature {median.median:.2f} C "
        f"(true {np.median(readings):.2f} C) in {median.probes} counting probes, "
        f"{median.slots_used} TDMA slots total"
    )


if __name__ == "__main__":
    main()
