"""Float-safety slack for Equation-1 lower bounds.

The metric's :meth:`lower_bound_many` implements Equation 1 exactly;
:func:`apply_slack` additionally subtracts a tiny relative slack so that
floating-point round-off in the accumulated channel sums can never push
a bound *above* the true distance and wrongly prune the optimum.
"""

from __future__ import annotations

import numpy as np

from ..core.channels import BOUND_SLACK


def apply_slack(lbs: np.ndarray) -> np.ndarray:
    """Deflate bounds by a relative + absolute epsilon (non-negative)."""
    return np.maximum(lbs * (1.0 - BOUND_SLACK) - BOUND_SLACK, 0.0)
