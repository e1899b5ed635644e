"""Volatility estimation under market-microstructure noise, non-parametric
tests for a time-varying noise level, aggregate liquidity risk, and the
Monte Carlo machinery to validate them."""

from .errors import (BlockTooSmall, DegenerateDesign, FewerThanTwoTicks,
                     HFNoiseError, InvalidConfig, InvalidIndices, InvalidK,
                     InvalidU, InvalidWindow, MalformedRow, NonFiniteStatistic,
                     NonFiniteValue, NonMonotoneTimes, WindowOutOfRange)
from .estimators import (EstimatorBundle, NoiseMoments, avg_rv,
                         estimator_bundle, modified_rv, noise_moments,
                         quarticity, realized_variance, tsrv, wtsrv)
from .grids import BlockPartition, SubgridSpec, block_partition, default_K, subgrids
from .liquidity import LiquidityReport, liquidity_report, noise_qv, noise_qv_stderr
from .mc import StudyResult, StudySpec, density_table, roc_points, run_paired_roc, run_study
from .regress import RegressionReport, block_estimates, fit_blocks, ols
from .simulate import (SimConfig, SimTruth, config_from_file, config_to_file,
                       fractional_ma_coeffs, make_noise, observe, sample_times,
                       simulate_latent, simulate_observed,
                       stationary_variance_draw)
from .stationarity import (TestReport, block_diff_mean_sq, block_test,
                           default_window, edge_test, log_p_value,
                           nonoverlap_mean_sq, overlap_mean_sq, p_value,
                           run_test, window_contrast, window_test,
                           window_test_nonoverlap)
from .ticks import TickSeries, load_csv, validate, write_csv

__version__ = "0.1.0"
