"""Recursive binary codes: construction, encoding, SC/list decoding, simulation.

The code family lives on a depth-m binary recursion tree; a code is a frozen
set over the 2**m leaf paths.  See the README for conventions (processing
order, belief domains) and the demos directory for worked tours.  Each
module's __all__ declares its public names; the package re-exports them all.
"""

from . import channel, code_model, encoder, list_decoder, ml_oracle, sc_decoder, sim
from .channel import *
from .code_model import *
from .encoder import *
from .list_decoder import *
from .ml_oracle import *
from .sc_decoder import *
from .sim import *

__version__ = "0.1.0"

__all__ = []
__all__ += channel.__all__
__all__ += code_model.__all__
__all__ += encoder.__all__
__all__ += list_decoder.__all__
__all__ += ml_oracle.__all__
__all__ += sc_decoder.__all__
__all__ += sim.__all__
