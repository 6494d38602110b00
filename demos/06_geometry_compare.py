"""Escaping-set geometry: why anisotropic noise helps SGD leave sharp basins.

The tail measure of the escaping set is inversely proportional to the mean
exit time.  On an anisotropic spectrum SGD's set (curvature times squared
noise scales) carries much more measure than Adam's preconditioned set, and
a common-random-numbers simulation shows the matching exit-time ordering.
"""

import numpy as np

from levyescape import dynamics, escape, geometry, landscapes


def main():
    spec = geometry.Spectrum(lambdas=np.array([10.0, 0.1]),
                             sigmas=np.array([3.0, 0.1]),
                             batch_size=1, h_f_star=1.0)
    geo = geometry.compare_measures(spec, 1.5, n_dirs=400_000, seed=1)
    print(f"m(W_sgd)  = {geo['m_sgd']:.3f} +- {geo['m_sgd_stderr']:.1e}")
    print(f"m(W_adam) = {geo['m_adam']:.3f} +- {geo['m_adam_stderr']:.1e}")
    print(f"measure ratio sgd/adam = {geo['ratio_sgd_over_adam']:.2f} "
          f"-> predicted exit-time ratio "
          f"{geo['predicted_exit_time_ratio_sgd_over_adam']:.3f}")

    land = landscapes.QuadraticBasin(H=np.diag(spec.lambdas),
                                     center=np.zeros(2), height=0.5)
    basin = landscapes.BasinSpec(region=land, eps=0.3, gamma=2.0)
    opt = dynamics.OptimizerConfig(kind="SGD", eta=1e-3, alpha=1.5,
                                   step_h=0.05, noise_scale=0.3,
                                   sigma=spec.sigmas, beta1=0.9, beta2=0.99)
    cfg = escape.EscapeConfig(landscape=land, basin=basin, optimizer=opt,
                              theta0=np.zeros(2), trials=500, max_steps=5000,
                              base_seed=8)
    rep = escape.compare_optimizers(cfg,
                                    q_fixed_adam=spec.batch_size * spec.sigmas)
    for kind, stats in rep["stats"].items():
        print(f"{kind:<5} simulated mean exit time {stats.mean_exit_time:.4f}")


if __name__ == "__main__":
    main()
