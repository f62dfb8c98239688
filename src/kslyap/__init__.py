"""Lyapunov spectra and Kaplan-Yorke dimensions of the Kuramoto-Sivashinsky
equation on periodic and odd-periodic domains."""

from .dynamics import (DynamicalSystem, diagonal_linear_system, initial_state,
                       integrate, lorenz_system)
from .errors import (EmptyWindow, FingerprintMismatch, InsufficientData,
                     IntegrationBlowUp, KslyapError, NonFiniteColumn,
                     RankDeficient, ResolutionTooCoarse, SingularNormalEquations)
from .ks import (ODD_PERIODIC, OddPeriodicFDModel, PERIODIC,
                 PeriodicSpectralModel, make_model)
from .lyapunov import (LyapunovConfig, LyapunovResult, burn_in, compute_spectrum,
                       propagate_frame, reorthonormalize)
from .analysis import (KaplanYorkeResult, PowerLawFit, WindowedStat,
                       fit_dky_linear, fit_power_law, kaplan_yorke,
                       scan_exponent_p, windowed_median_mad)
from .sweep import (SpectrumRecord, SweepPlan, compute_group, compute_point,
                    read_records, run_sweep)

__version__ = "0.1.0"
