"""Deterministic data generators used as workload substrates.

The paper bootstraps the platform "with sample projects inspired by TPC-H,
SSBM, airtraffic"; this subpackage provides deterministic, scale-factor
parameterised generators for all three so experiments are reproducible
without external data files:

* :mod:`repro.data.tpch` -- the eight TPC-H tables,
* :mod:`repro.data.ssb` -- the Star Schema Benchmark tables (lineorder + dims),
* :mod:`repro.data.airtraffic` -- a flights/airports/carriers star schema.

Every generator returns plain ``dict[str, list[tuple]]`` relations plus the
column definitions, and has a ``populate(engine)`` convenience that loads the
data into an engine instance.
"""

from repro.data.tpch import TPCHGenerator, generate_tpch, load_tpch, populate_tpch
from repro.data.ssb import SSBGenerator, generate_ssb, populate_ssb
from repro.data.airtraffic import AirTrafficGenerator, generate_airtraffic, populate_airtraffic

__all__ = [
    "TPCHGenerator",
    "generate_tpch",
    "load_tpch",
    "populate_tpch",
    "SSBGenerator",
    "generate_ssb",
    "populate_ssb",
    "AirTrafficGenerator",
    "generate_airtraffic",
    "populate_airtraffic",
]
