"""fracwave: exact spectral evolution of u_tt + (-Laplacian)^s u = 0 and a
numerical laboratory for its conservation, boundedness, and growth laws."""

from .errors import (BackendCapError, BackendMismatchError, ConfigError,
                     ConventionError, DivergenceError, FracwaveError,
                     InfeasibleThresholdError, NumericalFailureError,
                     PreconditionError, SeriesError, ValidityError,
                     WrongRegimeError)
from .estimates import (AreaSumReport, BoundSpec, SplitReport, area_sums,
                        fourier_split, log_growth_integral, log_lower_bound,
                        log_upper_bound, measure_constant, power_lower_bound,
                        power_upper_bound, select_theta0, uniform_bound)
from .grid import GridSpec
from .lemmas import (InequalityCheck, RadialGaussian, RadialGaussianLaplacian,
                     check_pointwise_bound, check_riesz_bound,
                     check_riesz_bound_zero_mean, gagliardo_constant,
                     gagliardo_seminorm, riesz_energy)
from .profiles import (CompactBump, Gaussian, GaussianDerivative, Profile,
                       ProfileSum, SampledProfile, ZERO, combine, fourier_at,
                       l1_norm, moment0, scaled, weighted_l1_norm)
from .ratefit import (NormSeries, RateReport, fit_log_rate,
                      fit_power_exponent, sample_norm_curve, sandwich_check)
from .spectral import (GridBackend, GridSnapshot, Parameters,
                       QuadratureBackend, QuadratureSnapshot, Snapshot,
                       SpectralField, evolve_state, hs_norm, hs_seminorm,
                       l2_norm, sine_multiplier)

__version__ = "0.1.0"
