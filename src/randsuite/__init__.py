"""Statistical randomness testing for bit sources.

A classic eight-test battery over bit sequences, the three-step batch
protocol (per-sample testing, pass-proportion banding, p-value uniformity),
per-sample entropy and stability analytics, and a deterministic noisy-qubit
sample generator for end-to-end experiments at any scale.

The public names are each module's ``__all__``, all re-exported here.
"""

from .bitseq import *
from .entropy import *
from .errors import *
from .randtests import *
from .sim import *
from .special import *
from .suite import *

__version__ = "0.1.0"
