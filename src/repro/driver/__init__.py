"""The experiment driver: the reproduction's ``sqalpel.py``.

"Once a sqalpel project is defined, people can use the sqalpel.py program to
contribute results using their own DBMS infrastructure.  This small Python
program contains the logic to call the web-server, requesting a query from
the pool and to report back the performance results."
"""

from repro.driver.config import DriverConfig, load_config
from repro.driver.client import HTTPClient, InProcessClient, RetryPolicy
from repro.driver.runner import BatchRunner, RunOutcome, measure_query

__all__ = [
    "DriverConfig",
    "load_config",
    "HTTPClient",
    "InProcessClient",
    "RetryPolicy",
    "BatchRunner",
    "RunOutcome",
    "measure_query",
]
