"""A few strong-solution paths of the jump-affine system.

Generates replayable noise for a handful of seeds as one batch, runs the
explicit scheme on it, and prints per-path summaries: terminal state,
path extremes, jump counts, and how often the nonnegativity clamp
engaged.  The same seeds always reproduce the same table.
"""

import numpy as np

from affine_lab import generate_noise, jump_affine_params, simulate_affine

T_MAX = 1.0
DT = 2.0 ** -8
U_BOUND = 16.0
SEEDS = np.arange(6)


def main():
    params = jump_affine_params()
    print(f"jump-affine paths on [0, {T_MAX:g}], dt = {DT:g}")
    print(f"{'seed':>4}  {'x(1)':>8}  {'z(1)':>8}  {'max x':>8}  "
          f"{'min z':>8}  {'n0':>3}  {'n1':>3}  {'clamps':>6}")
    noise = generate_noise(params.m, params.mu, T_MAX, DT, SEEDS, U_BOUND,
                           eps=0.0)
    comps, _, clamps = simulate_affine(params, 1.0, 0.0, noise)
    n0 = np.bincount(noise.n0_path, minlength=len(SEEDS))
    n1 = np.bincount(noise.n1_path, minlength=len(SEEDS))
    for i, seed in enumerate(SEEDS):
        x, z = comps["x"][i], comps["z"][i]
        print(f"{seed:>4}  {x[-1]:8.4f}  {z[-1]:8.4f}  {x.max():8.4f}  "
              f"{z.min():8.4f}  {n0[i]:>3}  {n1[i]:>3}  {clamps[i]:>6}")
    print()
    print("replaying the batch bit for bit:")
    again, _, _ = simulate_affine(params, 1.0, 0.0, noise)
    same = all(np.array_equal(comps[c], again[c]) for c in ("x", "z"))
    print(f"  identical paths: {same}")


if __name__ == "__main__":
    main()
