"""qmudsim: quantum-search-assisted multi-user detection at desk scale.

Subpackages:
  qcore     ideal state-vector simulator (registers, unitaries, measurement)
  qsearch   Grover-family search with exact oracle-query accounting
  cdma      complex-baseband DS-CDMA uplink model and matched-filter bank
  mud       cost functions, classical and quantum-assisted detectors, BER harness
  qchannel  zero-capacity flip channel vs phase-basis qubit encoding
  cli       reproducible experiment runner emitting CSV + manifests
"""

__version__ = "0.1.0"

from . import cdma, config, errors, mud, qchannel, qcore, qsearch  # noqa: F401,E402
