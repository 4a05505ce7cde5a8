"""Quickstart: schedule and simulate aggregation over a random deployment.

Run:  python examples/quickstart.py
"""

from repro import SUM, Pipeline, PipelineConfig, SINRModel, uniform_square


def main() -> None:
    # 1. A deployment: 100 sensors uniform in a unit square.
    points = uniform_square(100, rng=42)

    # 2. The paper's pipeline with global power control: MST tree,
    #    G_arb conflict graph, greedy first-fit coloring, certification.
    model = SINRModel(alpha=3.0, beta=1.0)
    config = PipelineConfig(n=len(points), power="global", num_frames=20, seed=42)

    # 3. Build the schedule and simulate 20 frames of sum aggregation.
    result = Pipeline(config, model=model).run(points, function=SUM)

    print("=== Wireless aggregation quickstart ===")
    print(result.summary())
    print()
    print(f"The sink aggregates one frame every {result.num_slots} slots;")
    print(f"Theorem 1 predicts O(log* Delta) ~ {result.predicted_slots:.0f} slots.")

    # 4. Every slot of the schedule is SINR-certified; the minimum SINR
    #    margin across all slots shows how much head-room remains.
    print(f"minimum SINR slack across slots: {result.schedule.min_slack():.3f}")


if __name__ == "__main__":
    main()
