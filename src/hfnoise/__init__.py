"""Volatility estimation under market-microstructure noise, non-parametric
tests for a time-varying noise level, aggregate liquidity risk, and the
Monte Carlo machinery to validate them.

The namespace holds the documented entry points, their result types and
every exception; import everything else from its submodule."""

from .errors import (BlockTooSmall, DegenerateDesign, FewerThanTwoTicks,
                     HFNoiseError, InvalidConfig, InvalidIndices, InvalidK,
                     InvalidU, InvalidWindow, MalformedRow, NonFiniteStatistic,
                     NonFiniteValue, NonMonotoneTimes)
from .estimators import (NoiseMoments, avg_rv, default_K, noise_moments,
                         realized_variance, tsrv, wtsrv)
from .liquidity import LiquidityReport, liquidity_report
from .mc import StudyResult, StudySpec, density_table, roc_points, run_paired_roc, run_study
from .regress import RegressionReport, block_estimates, fit_blocks, ols
from .simulate import SimConfig, SimTruth, simulate_observed
from .stationarity import TestReport, run_test
from .ticks import TickSeries, load_csv, write_csv

__version__ = "0.1.0"
