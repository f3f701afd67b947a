"""Play the refutation game: simulated trials against the local model.

Each trial the local model predicts the monitored event with probability r
while nature delivers it with probability q. The running likelihood ratio
loses about K(q, r) base-10 digits per trial on average; a run ends when
the model's odds drop below 10^-4. The median crossing time of many runs
should sit near the predicted trial count.

Run:  python demos/05_refutation_game.py
"""
import numpy as np

from triphoton import best_lr_model, run_batch, simulate_depression


def main():
    report = best_lr_model(1.0 / 6.0, 1.0)
    q, r = report.q1, report.r1
    print(f"game: nature plays q = {q:.6f}, the model defends r = {r:.6f}")
    print(f"prediction: about {report.n_trials:.1f} trials to 10^-4 odds\n")

    print("== one run, step by step ==")
    run = simulate_depression(q, r, seed=42, keep_trajectory=True)
    log10_odds = run.trajectory
    checkpoints = [0, 9, 49, 99, run.crossing_trial - 1]
    for i in checkpoints:
        print(f"  after trial {i + 1:4d}: log10 odds = {log10_odds[i]:+.3f}")
    print(f"crossed at trial {run.crossing_trial}\n")

    print("== a thousand runs ==")
    batch = run_batch(q, r, runs=1000, seed=0)
    crossings = batch.crossing_trials()
    print(f"median {np.median(crossings):.0f}, "
          f"quartiles [{np.percentile(crossings, 25):.0f}, "
          f"{np.percentile(crossings, 75):.0f}], max {crossings.max():.0f}")
    print("the median lands below the prediction: the mean drift sets the")
    print("expected count, while lucky streaks end runs early more often")
    print("than unlucky ones prolong them.\n")

    print("== a certain event is still a slow win ==")
    # when q = 1 every trial hits; against r = 3/4 each one costs the model
    # log10(3/4) digits, so the crossing lands exactly at trial 33
    sure = simulate_depression(1.0, 0.75)
    print(f"q = 1 vs r = 0.75: crossing at trial {sure.crossing_trial} on every seed")


if __name__ == "__main__":
    main()
