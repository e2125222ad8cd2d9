"""The certification harness: kernel probes, norm ratios, time continuity.

Runs the verdict-producing studies and prints their tables; this is what
the command-line front end wires into run configs.

    python3 demos/certification_demo.py
"""

from bspdelab.scenarios import get_scenario
from bspdelab.verify import (
    run_apriori_study,
    run_kernel_suite,
    run_time_shift_study,
    table,
)


def main():
    print("kernel probe suite")
    print(table(run_kernel_suite()))

    print("\nnorm-ratio stability under refinement and data scaling")
    specs = [get_scenario("sin_decay"), get_scenario("heat_quadratic")]
    print(table(run_apriori_study(specs)))

    print("\nsquare-root modulus of time continuity")
    print(table(run_time_shift_study([get_scenario("sin_decay")])))


if __name__ == "__main__":
    main()
