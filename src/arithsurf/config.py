"""Run configuration shared by the law verifiers, the CLI and the tests."""

import os
from dataclasses import dataclass

from .errors import ParseError
from .padic import DEFAULT_PRECISION

ENV_PREC_BITS = "ARITHSURF_PREC_BITS"
# Below double precision the numeric law sums cannot resolve the 1e-6
# tolerance: at 1 bit a passing horizontal law reads as a failure.
MIN_PREC_BITS = 53


@dataclass(frozen=True)
class RunConfig:
    prec_bits: int = 128  # mpmath working precision for numeric sums
    start_precision: int = DEFAULT_PRECISION  # least p-adic digits
    tolerance: float = 1e-6  # pass threshold for numeric law sums
    # No computation reads seed: every factorization is unique, so it chose
    # only which random draws ran.  Law reports still print it in their
    # config block, and callers still pass it.
    seed: int = 0

    def __post_init__(self):
        if self.prec_bits < MIN_PREC_BITS:
            raise ParseError(
                f"prec_bits must be at least {MIN_PREC_BITS}, got {self.prec_bits}"
            )
        if self.start_precision < 1:
            raise ParseError(
                f"start_precision must be at least 1, got {self.start_precision}"
            )


def default_config():
    """RunConfig with prec_bits taken from the environment when it is set."""
    kwargs = {}
    env = os.environ.get(ENV_PREC_BITS)
    if env:
        try:
            kwargs["prec_bits"] = int(env)
        except ValueError:
            raise ParseError(f"{ENV_PREC_BITS} must be an integer, got {env!r}") from None
    return RunConfig(**kwargs)
