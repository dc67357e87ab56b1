"""Bit-true simulator and energy model for a binary-CNN accelerator.

The package splits into:

* :mod:`bnnsim.tensors` / :mod:`bnnsim.functional` -- bit-packed tensors and
  the exact layer semantics (xnor-popcount convolution, threshold folding,
  boolean pooling, residual accumulation) plus the golden network model.
* :mod:`bnnsim.oracle` -- an independent bipolar brute-force reference.
* :mod:`bnnsim.network` / :mod:`bnnsim.netio` -- the layer-graph description,
  file formats, and stimulus generation.
* :mod:`bnnsim.arch` -- the architecture instance (compute geometry, memory
  hierarchy, operating point, calibration) and memory-fit validation.
* :mod:`bnnsim.scheduler` -- loop-nest planning, memory placement, and
  spatial column tiling.
* :mod:`bnnsim.simulator` -- bit-true execution of a plan, its exact
  counters from the plan alone (``cost``), and ``check`` against both references.
* :mod:`bnnsim.power` -- the calibrated activity-based power/energy model.
* :mod:`bnnsim.cli` -- the ``bnnsim`` command-line tool.
"""

from .arch import (
    ArchConfig,
    ComputeGeometry,
    FitReport,
    MemoryGeometry,
    OperatingPoint,
    builtin_arch,
    default_arch,
    load_arch,
    peak_ops_per_cycle,
    save_arch,
    validate,
)
from .functional import (
    BatchNorm,
    ThresholdVector,
    avg_pool_threshold,
    binary_maxpool,
    derive_threshold,
    fold_thresholds,
    layer_forward,
    run_network_reference,
    threshold_binarize,
    xnor_conv,
)
from .netio import (
    builtin_network,
    load_network,
    load_tensor,
    load_weights,
    random_input,
    random_network,
    random_thresholds,
    random_weights,
    save_network,
    save_tensor,
    save_weights,
)
from .network import LayerConfig, NetworkDesc
from .oracle import run_bipolar_reference
from .power import CalibrationTable, PowerReport, core_power, efficiency, full_report, ideal_point
from .scheduler import Schedule, plan_network
from .simulator import Stats, UtilizationReport, check, cost, execute, run, utilization
from .tensors import BinaryTensor, IntTensor, binarize_pack

__version__ = "0.1.0"
