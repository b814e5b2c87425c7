"""repro -- reproduction of Jordans et al., "An Automated Flow to Map
Throughput Constrained Applications to a MPSoC" (PPES 2011).

The package mirrors the paper's flow (Fig. 1):

* :mod:`repro.sdf` -- SDF graph analysis (the SDF3 substrate): consistency,
  deadlock, state-space throughput, buffer sizing.
* :mod:`repro.appmodel` -- application model: actor implementations with
  WCET / memory / token-size metrics, multiple implementations per actor.
* :mod:`repro.arch` -- MAMPS architecture template: tiles, FSL links,
  SDM mesh NoC, FPGA area model.
* :mod:`repro.comm` -- the parameterized interconnect communication model of
  Fig. 4 (token serialization, latency-rate channel, deserialization).
* :mod:`repro.mapping` -- the SDF3-style mapping flow: binding, routing,
  static-order scheduling, buffer allocation, throughput guarantee.
* :mod:`repro.mamps` -- platform generation: netlist, per-tile software,
  XPS-style project bundle, and "synthesis" into a simulator platform.
* :mod:`repro.sim` -- cycle-level platform simulator (the FPGA stand-in).
* :mod:`repro.mjpeg` -- the MJPEG decoder case study of Section 6.
* :mod:`repro.flow` -- the end-to-end design flow driver and reporting.

Quickstart::

    from repro.flow import DesignFlow
    from repro.mjpeg import build_mjpeg_application
    from repro.arch import architecture_from_template

    app = build_mjpeg_application()
    arch = architecture_from_template(tiles=5, interconnect="fsl")
    flow = DesignFlow(app, arch)
    result = flow.run()
    print(result.guaranteed_throughput, result.measured_throughput)
"""

__version__ = "1.0.0"

from repro.exceptions import (
    ArchitectureError,
    BitstreamError,
    DeadlockError,
    GenerationError,
    GraphError,
    InconsistentGraphError,
    MappingError,
    ReproError,
    RoutingError,
    SimulationError,
    ThroughputConstraintError,
)

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "InconsistentGraphError",
    "DeadlockError",
    "ArchitectureError",
    "RoutingError",
    "MappingError",
    "ThroughputConstraintError",
    "GenerationError",
    "SimulationError",
    "BitstreamError",
]
