"""Vacuum-capable solver for the spherically/cylindrically symmetric full
compressible Navier-Stokes equations on an annulus, with a general
temperature-dependent heat conductivity, regularized initial-data
construction, and blow-up/a-priori diagnostics."""

from .constitutive import (GasModel, check_admissible, conductivity,
                           heat_capacity, ideal_gas, internal_energy,
                           power_gas, pressure, thermo_consistency_residual)
from .diagnostics import (DiagnosticsSeries, Trajectory, alt_criteria,
                          blowup_indicator, blowup_indicator_series,
                          entropy_dissipation, kinetic_energy, mass,
                          sup_theta_time_integral, total_energy,
                          weighted_supnorm_check)
from .errors import ConfigError, DtUnderflow, PicardDivergence, SolverFailure
from .grid import (Grid, make_grid, radial_to_ambient_norm, weighted_integral,
                   weighted_lp_norm)
from .initdata import (compatibility_residuals, load_initial_csv, preset,
                       regularize, solve_initial_velocity)
from .state import State
from .stepper import (StepControls, cfl_dt, run, step_continuity,
                      step_detailed, step_momentum, step_temperature)

__version__ = "0.1.0"
