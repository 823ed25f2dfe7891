"""Exact characteristic exponents for the built-in parameter sets.

Solves the Riccati system for a few frequency arguments, prints the
resulting characteristic-function values at t = 1 from two starting
points, and spot-checks the semigroup flow property along the way.
"""

import numpy as np

from affine_lab import (UPoint, builtin_params, char_fn, flow_residual,
                        solve_transforms)

U_POINTS = (UPoint(-1.0, 0.0), UPoint(0.0, 1j), UPoint(-0.5, 2j))
STATES = ((1.0, 0.0), (2.0, -1.0))


def main():
    grid = np.linspace(0.0, 1.0, 5)
    for name in ("ou", "cir", "jump_affine"):
        params = builtin_params(name)
        print(f"=== {name} ===")
        solutions = solve_transforms(params, U_POINTS, grid)
        for u, solution in zip(U_POINTS, solutions):
            print(f"  u = ({u.u1:g}, {u.u2:g})")
            print(f"    psi1(1) = {solution.psi1[-1]:.6f}   "
                  f"phi(1) = {solution.phi[-1]:.6f}")
            for x in STATES:
                value = char_fn(params, x, 1.0, u)
                print(f"    E[exp(u . X_1) | X_0 = {x}] = {value:.6f}  "
                      f"(|.| = {abs(value):.6f})")
            res = flow_residual(params, u, 0.5, 0.5, 1e-9)
            print(f"    flow residual at r = t = 0.5: psi {res.psi:.2e}, "
                  f"phi {res.phi:.2e}")
        print()


if __name__ == "__main__":
    main()
