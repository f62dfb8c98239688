"""Lyapunov spectra and Kaplan-Yorke dimensions of the Kuramoto-Sivashinsky
equation on periodic and odd-periodic domains."""

from .dynamics import (DynamicalSystem, diagonal_linear_system, initial_state,
                       integrate, jacobian_trace_average, lorenz_system)
from .errors import (DegenerateDivisor, EmptyWindow, FingerprintMismatch,
                     InsufficientData, IntegrationBlowUp, KslyapError,
                     NonFiniteColumn, RankDeficient, ResolutionTooCoarse,
                     SingularNormalEquations)
from .ks import (DomainSpec, ODD_PERIODIC, OddPeriodicFDModel, PERIODIC,
                 PeriodicSpectralModel, make_model)
from .lyapunov import (LyapunovConfig, LyapunovResult, burn_in, compute_spectrum,
                       propagate_frame, reorthonormalize,
                       scan_reorthonormalization_interval)
from .analysis import (KaplanYorkeResult, PowerLawFit, WindowedStat,
                       estimate_j_zero, fit_dky_linear, fit_power_law,
                       kaplan_yorke, mean_abs_deviation, predict_exponent,
                       scan_exponent_p, windowed_median_mad)
from .sweep import (SpectrumRecord, SweepPlan, compute_point, read_records,
                    run_sweep)

__version__ = "0.1.0"
