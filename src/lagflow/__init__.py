"""lagflow: a numerical laboratory for Lagrangian trajectories of
mollified Leray solutions on the periodic box.

Subpackages by concern:

- ``fields``     spectral/real fields, norms, sampling
- ``lorentz``    Lorentz-space norms and interpolation inequality checks
- ``solver``     mollified Leray pseudo-spectral time stepping
- ``forcing``    continuous forcing paths (zero, Brownian, custom)
- ``flow``       particle advection and compressibility
- ``weights``    asymmetric Lusin-Lipschitz weights and flow weights
- ``picard``     Picard iterations toward the flow, rates, bad sets
- ``uniqueness`` multi-scheme a.e.-uniqueness probes
- ``io``         LGF1/LGS1/LGT1 binary formats and CSV reports
- ``config``     line-oriented experiment configuration
- ``pipeline``   stage orchestration, manifests, summaries
- ``cli``        the ``lagflow`` command
"""

__version__ = "0.1.0"
