"""Pathwise solution of a backward stochastic problem and its Monte Carlo
cross-checks.

The terminal functional sin(x) W_T separates into a space profile and a path
series; the solver convolves the profile once and reuses it for every path.
The same data goes through least-squares regression for comparison.

    python3 demos/stochastic_representation_demo.py
"""

import numpy as np

from bspdelab.grid import TimeGrid
from bspdelab.scenarios import get_scenario
from bspdelab.stochastic import solve_bsde_closed, solve_bsde_regression


def main():
    spec = get_scenario("stochastic_sinWT")
    sol, coeffs, paths = spec.solve(num_paths=2000)
    idx = np.arange(500)
    u_exact, v_exact = spec.oracle(spec, sol, paths.subset(idx))
    m = sol.trusted
    du = sol.u_dense(0, path_idx=idx)[..., m] - u_exact[..., m]
    dv = sol.v_dense(0, 0, path_idx=idx)[..., m] - v_exact[None, :, m]
    print(f"representation route, {paths.num_paths} paths")
    print(f"  u rms error {np.sqrt(np.mean(du**2)):.3e}")
    print(f"  v rms error {np.sqrt(np.mean(dv**2)):.3e}")

    # regression recovers the conditional expectation from samples alone
    grid = TimeGrid(1.0, 50)
    p = spec.paths(num_paths=5000, time_grid=grid, seed=7)
    x = np.array([-1.0, 0.0, 1.0])
    term = coeffs.terminal.terminal_values(p, x)
    reg = solve_bsde_regression(term, coeffs.sigma, p)
    closed = solve_bsde_closed(coeffs.terminal, coeffs.sigma, p)
    err = np.sqrt(np.mean((reg.phi - closed.phi_dense(x)) ** 2))
    print(f"regression vs closed conditional expectation: rms {err:.3e} "
          f"(shrinks like one over root of the ensemble size)")


if __name__ == "__main__":
    main()
