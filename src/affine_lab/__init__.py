"""Simulation and validation toolkit for two-dimensional affine jump dynamics.

The package has three layers:

* exact transforms — characteristic functions through a generalized Riccati
  system (:mod:`affine_lab.transform`);
* strong-solution simulation — explicit schemes driven by a replayable noise
  system with thinned Poisson jumps (:mod:`affine_lab.noise`,
  :mod:`affine_lab.sde`);
* cross-validation — Monte Carlo ensembles checked against the transform
  layer, moment laws, generators, and scaling limits
  (:mod:`affine_lab.validate`).

``affine_lab.cli`` exposes the same workflows as the ``affine-lab`` command.
"""

__version__ = "0.1.0"

from .params import (  # noqa: E402,F401
    AdmissibilityError,
    AdmissibleParams,
    FiniteAtomicMeasure,
    ProductExponentialMeasure,
    UPoint,
    psd_factor,
    validate_admissible,
)
from .transform import (  # noqa: E402,F401
    FlowResidual,
    MomentFunctionals,
    TransformError,
    TransformSolution,
    char_fn,
    eval_F,
    eval_R,
    flow_residual,
    moment_functionals,
    solve_transforms,
)
from .presets import (  # noqa: E402,F401
    builtin_params,
    cir_params,
    jump_affine_params,
    ou_params,
    symmetric_split_params,
)
from .noise import (  # noqa: E402,F401
    RNG_ID,
    NoiseSystem,
    generate_noise,
    refine,
    steps_for,
    substream_seed,
)
from .sde import (  # noqa: E402,F401
    EnsembleResult,
    ParameterSplit,
    run_ensemble,
    simulate_affine,
    simulate_catalytic,
    simulate_cbi,
    simulate_reactant_pair,
)
from .validate import (  # noqa: E402,F401
    CheckRow,
    ExperimentReport,
    check_affine_formula,
    check_generators,
    check_moments,
    fluctuation_experiment,
    sc_semigroup_check,
    uniqueness_experiment,
)
