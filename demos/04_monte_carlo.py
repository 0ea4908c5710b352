"""Reproducible Monte Carlo and variance-reduced estimation.

Every trial owns a counter-based random stream keyed by (master seed,
trial index), so the same seed gives byte-identical results at any batch
size.  The mistake probability is estimated two ways: the naive
indicator frequency and the Rao-Blackwellized average of min(mu, 1-mu),
which has strictly smaller variance.  The upset count (action flips per
trajectory) has a geometric tail, visible in a straight semilog fit.
"""

import numpy as np

from herdsim import (
    GaussianSignalModel,
    StateOfWorld,
    estimate_mistake_curve,
    estimate_time_to_learn,
    estimate_upset_tail,
    run_trials,
)

model = GaussianSignalModel(sigma=1.0)
theta = StateOfWorld.PLUS

agg = run_trials(model, theta, horizon=1000, trials=20000, master_seed=2718)
agg2 = run_trials(model, theta, horizon=1000, trials=20000, master_seed=2718, batch_size=5000)
assert agg.first_mistake_hist == agg2.first_mistake_hist, "batch size changed results?"
print("20000 trials, horizon 1000 — identical in batches of 2048 and of 5000")
print()

print("mistake probability of agent t (RB vs naive):")
print("    t     p_rb        p_naive     stderr_rb")
for t, p_rb, p_naive, se in estimate_mistake_curve(agg):
    print(f"  {t:4d}   {p_rb:.6f}   {p_naive:.6f}   {se:.2e}")
print("the two estimators agree; the RB column is the low-variance one")
print()

rep = estimate_time_to_learn(agg)
print(f"time to learn: mean {rep.mean_uncensored:.2f} over uncensored trials, "
      f"censored fraction {rep.censored_fraction:.4f}")
print(f"lower bound E[min(T_L, horizon)] = {rep.lower_bound:.2f}")
print()

fit = estimate_upset_tail(agg)
print("upset-count survival P(Xi >= n) with a geometric-tail fit:")
for n in fit.n_values[: min(8, len(fit.n_values))]:
    print(f"  n={n}:  {fit.survival[n]:.4f}  [{fit.wilson_lo[n]:.4f}, {fit.wilson_hi[n]:.4f}]")
print(f"fit over n in {fit.fit_range}: slope {fit.slope:.3f} "
      f"(decay rate {np.exp(fit.slope):.3f} per upset), R^2 = {fit.r_squared:.4f}")
