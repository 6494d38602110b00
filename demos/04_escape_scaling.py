"""Mean exit time vs noise amplitude: the power law.

For alpha-stable noise the mean first-exit time from a basin scales like
eps^(-alpha), so the log-log slope of the sweep recovers the tail index.
Trial counts here are reduced for a quick run; the checked-in preset
presets/scaling_alpha15.cfg holds the full configuration.
"""

import numpy as np

from levyescape import dynamics, escape, geometry, landscapes


def main():
    alpha = 1.5
    basin = landscapes.BasinSpec(region=landscapes.IntervalRegion(-1.0, 1.0),
                                 eps=0.02, gamma=2.0)
    land = landscapes.QuadraticBasin(H=np.array([[1.0]]), center=np.zeros(1),
                                     height=0.5)
    opt = dynamics.OptimizerConfig(kind="SGD", eta=1e-3, alpha=alpha,
                                   step_h=0.2, noise_scale=0.02)
    cfg = escape.EscapeConfig(landscape=land, basin=basin, optimizer=opt,
                              theta0=np.zeros(1), trials=500,
                              max_steps=30000, base_seed=4242)

    eps_list = [0.01, 0.02, 0.05, 0.1]
    rep = escape.scaling_sweep(cfg, eps_list)
    print("eps      mean exit time")
    for e, t in zip(rep["eps"], rep["mean_exit_time"]):
        print(f"{e:<8g} {t:.2f}")
    print(f"log-log slope {rep['slope']:.3f} (theory {-alpha:g}), "
          f"r^2 {rep['r2']:.4f}")

    # tail measure of the exit set {|y| >= 1} of the unit interval
    m_w = geometry.radon_measure(geometry.QuadraticEscapeSet(A=[[1.0]], c=1.0), alpha)
    pred = escape.predicted_mean_exit(m_w, alpha, eps_list[0])
    print(f"predicted mean exit at eps={eps_list[0]}: {pred:.2f}, "
          f"observed {rep['mean_exit_time'][0]:.2f}")


if __name__ == "__main__":
    main()
