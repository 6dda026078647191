"""Walk one rollout through every stage, printing what each one sees.

Generates a single synthetic rollout with a planted margin drop, then shows
the per-token margins, the segment scores, the change-point decision, and the
reweighted advantages side by side. Run it directly:

    python3 demos/single_rollout_walkthrough.py
"""

import numpy as np

from teachcut import (SyntheticConfig, aggregate_segment_scores,
                      detect_downward_change, dynamic_prefix_reweight,
                      generate_piecewise_rollout, sampled_advantage,
                      teacher_top2_margin)


def bar(value, scale=30.0):
    return "#" * max(0, int(round(value * scale)))


def main():
    config = SyntheticConfig(num_segments=8, tokens_per_segment=6,
                             true_tau=5, pre_margin_mean=1.2,
                             post_margin_mean=0.1, noise_std=0.15, seed=4)
    record, truth = generate_piecewise_rollout(config)
    print(f"rollout {record.rollout_id}: {record.num_tokens} tokens, "
          f"{len(record.segments)} segments, drop planted after segment "
          f"{truth.true_tau}\n")

    margins = teacher_top2_margin(record.candidates)
    scores = aggregate_segment_scores(margins, record.segments)
    print("segment scores (log1p of the mean teacher margin):")
    for i, score in enumerate(scores.scores):
        print(f"  segment {i}: {score:6.3f} {bar(score, 20)}")

    decision = detect_downward_change(scores)
    print(f"\nchange point: accepted={decision.accepted} "
          f"release_segment={decision.release_segment} "
          f"gain={decision.bic_gain:.2f}")
    print(f"pre mean {decision.mu_pre:.3f} vs post mean {decision.mu_post:.3f}")

    result = dynamic_prefix_reweight(record)
    advantage = sampled_advantage(record)
    kept = int(result.prefix_mask.sum())
    print(f"\nretained the first {kept} of {record.num_tokens} tokens; "
          f"scale {result.scale:.4f} keeps the total supervision mass")
    print("token  mask  advantage  reweighted")
    show = list(range(kept - 2, kept + 3))
    for t in show:
        print(f"{t:5d}  {result.prefix_mask[t]:4.1f}  {advantage[t]:9.4f}  "
              f"{result.rescaled_advantages[t]:10.4f}")

    total_before = float((advantage * record.loss_mask).sum())
    total_after = float((result.rescaled_advantages * record.loss_mask).sum())
    print(f"\nmass check: sum(l*q*scale) = {float((record.loss_mask * result.prefix_mask * result.scale).sum()):.6f}"
          f" vs sum(l) = {float(record.loss_mask.sum()):.6f}")
    print(f"advantage sums before/after: {total_before:.4f} / {total_after:.4f}"
          " (the retained prefix carries the full weight)")


if __name__ == "__main__":
    main()
