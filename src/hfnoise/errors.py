"""Exception types raised across the package."""


class HFNoiseError(Exception):
    """Base class for all errors raised by hfnoise."""


class MalformedRow(HFNoiseError):
    """A CSV record could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class FewerThanTwoTicks(HFNoiseError):
    """A tick series needs at least two observations."""


class NonFiniteValue(HFNoiseError):
    """A time or price is NaN or infinite."""


class NonMonotoneTimes(HFNoiseError):
    """Observation times are not strictly increasing."""


class InvalidK(HFNoiseError):
    """Subsampling step / block size outside its admissible range."""


class InvalidIndices(HFNoiseError):
    """A sampling grid is not a strictly increasing index sequence in [0, n]."""


class InvalidWindow(HFNoiseError):
    """Window configuration is not admissible for the series length."""


class NonFiniteStatistic(HFNoiseError):
    """A test statistic must be finite to map to a p-value."""


class BlockTooSmall(HFNoiseError):
    """Regression blocks need enough observations per block and enough blocks."""


class DegenerateDesign(HFNoiseError):
    """The regressor has zero variance; no line can be fit."""


class InvalidU(HFNoiseError):
    """Fractional moving-average exponent outside (-0.5, 0.5)."""


class InvalidConfig(HFNoiseError):
    """A simulation configuration value is out of range."""
