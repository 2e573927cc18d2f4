"""Sampling heavy-tailed densities by running Langevin steps on a
diffeomorphically transformed potential.

The pieces compose left to right: `transform` builds the radial map h,
`dynamics` the transformed potential f_h of a potential paired with h and
its derivatives, `targets` the benchmark potentials, each paired with its
transform, `sampler` the discrete chains, and `analysis` the verifiers
and diagnostics.  The package exports every public name of these five
modules; `cli` exposes all of it as the `tula` command.
"""

from . import analysis, dynamics, sampler, targets, transform
from .analysis import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .sampler import *  # noqa: F403
from .targets import *  # noqa: F403
from .transform import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *dynamics.__all__, *sampler.__all__, *targets.__all__,
           *transform.__all__, "__version__"]
