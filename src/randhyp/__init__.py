"""randhyp: numerical certification of uniform expansion and uniform
hyperbolicity for random dynamical systems over concrete ergodic bases.

The package builds skew products from a small catalog of base systems
(Bernoulli/Markov shifts, circle rotations, one-point base) and fiber map
families (expanding circle maps, linear torus cocycles), estimates
fibrewise Lyapunov exponents, certifies minimum expansion rates with
explicit constants, and checks hyperbolic splittings.
"""

__version__ = "0.1.0"

from .base import (BaseState, BaseSystemSpec, base_inverse_step, base_step,
                   periodic_state, sample_base, shift_by, symbol_at)
from .cocycle import (UnitTangentPoint, birkhoff_sum_phi, cocycle_product,
                      iterate, unit_tangent, unit_tangent_step)
from .config import ExperimentConfig, parse_config
from .ergodic import (LambdaReport, PeriodicOrbitRecord,
                      enumerate_periodic_orbits, lambda_estimate)
from .errors import (CocycleOverflowError, ConfigurationError, ContractError,
                     RandhypError, UnsupportedOperationError, WindowLimitError)
from .expansion import (ExpansionCertificate, MinExpansionTable,
                        build_expansion_certificate, min_expansion_table,
                        min_log_expansion, supadditivity_residuals, sweep_windows,
                        tempered_constant, uniform_rate_estimate,
                        variable_rate_corollary)
from .fibers import (FAMILY_CATALOG, FiberFamily, ManifoldPoint,
                     derivative_bounds, fiber_derivative, make_family, point)
from .lyapunov import (ExponentEstimate, SpectrumEstimate,
                       exponent_positivity_report, oseledets_spectrum,
                       top_exponent)
from .splitting import (BundlePair, SplittingCertificate, bundle_rates,
                        finite_time_bundles, hyperbolicity_certificate,
                        invariance_residual)


def __getattr__(name):
    # loaded on first use, so `python -m randhyp.cli` runs a fresh module
    if name in ("RunReport", "run_task"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
