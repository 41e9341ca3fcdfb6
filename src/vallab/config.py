"""Runtime configuration knobs.

The only knob is the ambient-dimension cap for the combinatorial
enumerations: critical rays, Newton facets and lattice searches are
exponential in the dimension, so the default keeps things at desk scale;
raise the cap via the ``VALLAB_DIM_CAP`` environment variable if you
accept the cost.  That cost includes each integer cross product
(``geometry.kernel_basis``), which takes about n 2^n products and keeps
index tables of that size for the rest of the process, even for an
ideal with few generators: about 10^7 of each at n = 20.
"""

import os

from .errors import DimensionCapError

DEFAULT_DIM_CAP = 4

ENV_DIM_CAP = "VALLAB_DIM_CAP"


def require_within_cap(n):
    """Raise DimensionCapError when dimension n exceeds the active cap.

    The cap is ``VALLAB_DIM_CAP`` if set, else 4, read on every call.  A
    value that is not an integer of at least 1 raises DimensionCapError
    naming the variable.
    """
    text = os.environ.get(ENV_DIM_CAP, str(DEFAULT_DIM_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DimensionCapError(
            f"{ENV_DIM_CAP}={text!r} is not a positive integer")
    if n > cap:
        raise DimensionCapError(
            f"dimension {n} exceeds cap {cap}; raise {ENV_DIM_CAP} to force")
