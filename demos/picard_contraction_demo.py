"""Damped Picard iterations: variable coefficients and semilinear drivers.

Shows the frozen-reference iteration converging on a space-dependent
diffusion, and how exponential damping shrinks the contraction factor of
the semilinear fixed-point map.

    python3 demos/picard_contraction_demo.py
"""

import numpy as np

from bspdelab.scenarios import get_scenario
from bspdelab.verify import run_convergence_study


def main():
    spec = get_scenario("variable_a_sin")
    sol, coeffs, paths = spec.solve()
    u_exact, _ = spec.oracle(spec, sol, paths)
    m = sol.trusted
    err = np.max(np.abs(sol.u_dense(0)[0][:, m] - u_exact[:, m]))
    print(f"variable a(x) = 1 + 0.4 sin x: {sol.info['iterations']} "
          f"iterations, sup error vs finite differences {err:.3e}")
    for h in sol.info["history"]:
        print(f"  iter {h['iteration']}: change {h['sup_change']:.3e}")

    print("\ndamping sweep on the driver f = 2u:")
    sweep = run_convergence_study(get_scenario("beta_sweep"), "beta")
    for row in sweep.details["rows"]:
        print(f"  beta {row['beta']:5.1f}: contraction factor "
              f"{row['contraction_factor']:.3f} in "
              f"{row['iterations']} iterations")


if __name__ == "__main__":
    main()
