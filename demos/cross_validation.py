"""Monte Carlo ensembles cross-checked against the exact transform layer.

Runs the empirical characteristic function and first-moment checks for
the jump-affine parameter set at a desk-scale path count, then prints the
report tables.  Each estimate adds a coupled step-halving correction,
run on one path in sixteen, to the coarse mean; tolerances combine three
standard errors with a discretization budget of twice the largest
correction, so a healthy scheme passes every row.
"""

from affine_lab import (UPoint, check_affine_formula, check_moments,
                        jump_affine_params)

N_PATHS = 4000
DT = 2.0 ** -8
SEED = 7


def main():
    params = jump_affine_params()
    frequencies = [UPoint(-1.0, 0.0), UPoint(0.0, 1j), UPoint(-0.5, 2j)]
    print(f"n = {N_PATHS} paths, dt = {DT:g}, seed = {SEED}\n")
    report = check_affine_formula(params, 1.0, 0.0, [0.5, 1.0],
                                  frequencies, n_paths=N_PATHS,
                                  master_seed=SEED, dt=DT)
    print(report)
    print(f"\n  bias budget: {report.details['bias_budget']:.2e}, "
          f"retried paths: {report.details['n_retried']}\n")
    moments = check_moments(params, 1.0, 0.0, [0.5, 1.0],
                            n_paths=N_PATHS, master_seed=SEED, dt=DT)
    print(moments)


if __name__ == "__main__":
    main()
