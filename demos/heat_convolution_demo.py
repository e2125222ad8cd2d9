"""Solve terminal-value heat problems by kernel convolution and compare
against closed forms.

Walks the representation route end to end: build the problem data, solve,
check the sup error on the trusted region, and print the residual of the
integral form.

    python3 demos/heat_convolution_demo.py
"""

import numpy as np

from bspdelab.scenarios import get_scenario
from bspdelab.verify import run_residual_check


def main():
    for sid in ("heat_quadratic", "sin_decay", "transport_decay",
                "constant_source"):
        spec = get_scenario(sid)
        sol, coeffs, paths = spec.solve()
        u_exact, _ = spec.oracle(spec, sol, paths)
        m = sol.trusted
        err = np.max(np.abs(sol.u_dense(0)[0][:, m] - u_exact[:, m]))
        verdict = run_residual_check(sol, coeffs, spec.residual_tolerance, paths,
                                     check_id=f"residual.{sid}")
        print(f"{sid:<16} sup error {err:9.3e}   residual rms "
              f"{verdict.measured['rms']:9.3e}   [{spec.provenance}]")

    # refinement behavior on a kinked terminal: the quadrature error of the
    # convolution decays at second order in the lattice spacing
    spec = get_scenario("abs_kink")
    from bspdelab.verify import run_convergence_study

    v = run_convergence_study(spec, "h")
    print(f"\nabs_kink spatial order {v.measured['fitted_order']:.3f} "
          f"(expected {v.tolerance['expected_order']})")
    for row in v.details["rows"]:
        print(f"  J={row['points']:>4}  h={row['h']:.4f}  "
              f"error={row['error']:.3e}")


if __name__ == "__main__":
    main()
