"""Exception hierarchy shared by all modules.

Two branches matter for callers: DataError for anything wrong with files or
input layout, NumericError for anything wrong with the mathematics (shapes
are fine, values are not). The CLI maps them to distinct exit codes.
"""


class KppcaError(Exception):
    pass


class DataError(KppcaError):
    pass


class NumericError(KppcaError):
    pass


# --- numeric -----------------------------------------------------------


class NonFinite(NumericError):
    """Input contains NaN or Inf entries."""


class NoConvergence(NumericError):
    """The iterative eigenvalue solver failed to converge."""


class DimensionMismatch(NumericError):
    """Vector or matrix dimensions are incompatible."""


class LatentExceedsRank(NumericError):
    """Requested latent dimension exceeds what the data support: the
    numerical rank of the centered Gram matrix, or min(d, N)."""


class SigmaTooLarge(NumericError):
    """Requested noise variance exceeds lambda_1 / N; no latent dimension is admissible."""


class SigmaZero(NumericError):
    """Operation needs a strictly positive noise variance."""


class NotCentered(NumericError):
    """A kernel column has a component along a null direction of the
    marginal covariance, such as the constant vector."""


class RankDeficient(NumericError):
    """lambda_q is at the clamp floor, spectral.rank_floor, or the marginal
    covariance has more than one null direction."""


class ZeroSpectrum(NumericError):
    """All eigenvalues are zero; ratios of the spectrum are undefined."""


class DegenerateNormalizer(NumericError):
    """At epsilon (near) 0, a column has (almost) no positive smoother weight."""


# --- data --------------------------------------------------------------


class ParseError(DataError):
    def __init__(self, message, row=None, col=None):
        if row is not None:
            message = f"{message} (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(message)
        self.row = row
        self.col = col


class RaggedRows(DataError):
    """CSV rows do not all have the same number of fields."""


class BadMagic(DataError):
    """File does not start with the expected magic number."""


class CountMismatch(DataError):
    """Image and label files disagree on the number of items."""


class Truncated(DataError):
    """File ends before the declared payload is complete."""


class VersionMismatch(DataError):
    """Model file was written by an unknown format version."""


class CorruptFile(DataError):
    """Model file structure is damaged or inconsistent."""
