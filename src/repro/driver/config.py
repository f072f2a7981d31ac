"""Driver configuration.

"The experiment driver is locally controlled using a configuration file.  It
specifies the DBMS and host used in the experimental run and the project
contributed to.  Furthermore, it uses a separately supplied key to identify
the source of the results without disclosing the contributor's identity."

The configuration file uses INI syntax (``configparser``), e.g.::

    [sqalpel]
    server = http://127.0.0.1:8080
    key = 6f1f7...
    project = tpch-sf001
    experiment = 1

    [target]
    dbms = columnstore-1.0
    host = laptop
    repeats = 5
    timeout = 60
    batch_size = 8
    retries = 4
    retry_delay = 0.05

``batch_size`` is how many tasks :class:`repro.driver.runner.BatchRunner`
claims per round trip (1 is the paper's one-task loop); it measures them one
after the other, so no measurement contends with another.  ``retries`` and
``retry_delay`` bound the runner's retry loop around failed platform round
trips (decorrelated-jitter backoff; submissions stay safe to retry because
they carry idempotency keys).

An optional ``[telemetry]`` section configures the driver's tracing::

    [telemetry]
    enabled = true
    trace_tasks = true
    span_capacity = 2048
    flight_capacity = 32
    slow_task_seconds = 1.0
    span_log = /tmp/driver-spans.jsonl
    flight_log = /tmp/flight.jsonl

``trace_tasks`` turns on per-task driver spans (claim/execute/submit plus
the engine's nested ``QueryTrace``); ``span_log`` appends every recorded
span as JSONL when a drain finishes, ready for
``analytics/timeline.py`` / the CLI ``timeline`` subcommand.  The
remaining knobs mirror :class:`repro.obs.TelemetryConfig` (shared with
the service's flight recorder).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.obs import TelemetryConfig


@dataclass
class DriverConfig:
    """Validated driver configuration."""

    key: str
    dbms: str
    host: str
    server: str | None = None
    project: str | None = None
    experiment: int | None = None
    repeats: int = 5
    timeout: float = 60.0
    batch_size: int = 8
    #: how many times the runner retries a failed platform round trip
    #: (claiming or submitting) before giving up on it; idempotency keys make
    #: retried submissions safe.  0 disables retries.
    retries: int = 4
    #: base delay of the decorrelated-jitter backoff between retries.
    retry_delay: float = 0.05
    #: record per-task driver spans (execute / submit / backoff, with the
    #: engine's QueryTrace nested under the execute span).
    trace_tasks: bool = False
    #: JSONL file the runner appends its recorded spans to after a drain.
    span_log: str | None = None
    #: shared telemetry knobs (span/flight capacities, slow threshold, sinks).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigError("the contributor key is required")
        if not self.dbms:
            raise ConfigError("the target DBMS label is required")
        if not self.host:
            raise ConfigError("the host name is required")
        if self.repeats <= 0:
            raise ConfigError("repeats must be a positive integer")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.batch_size <= 0:
            raise ConfigError("batch_size must be a positive integer")
        if self.retries < 0:
            raise ConfigError("retries must not be negative")
        if self.retry_delay < 0:
            raise ConfigError("retry_delay must not be negative")


def load_config(path: str | Path) -> DriverConfig:
    """Read and validate a driver configuration file."""
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read configuration file '{path}'")
    if "sqalpel" not in parser:
        raise ConfigError("the configuration must contain a [sqalpel] section")
    sqalpel = parser["sqalpel"]
    target = parser["target"] if "target" in parser else {}

    experiment_raw = sqalpel.get("experiment", "")
    try:
        experiment = int(experiment_raw) if experiment_raw else None
    except ValueError:
        raise ConfigError("experiment must be an integer id") from None

    try:
        repeats = int(target.get("repeats", "5"))
        timeout = float(target.get("timeout", "60"))
        batch_size = int(target.get("batch_size", "8"))
        retries = int(target.get("retries", "4"))
        retry_delay = float(target.get("retry_delay", "0.05"))
    except ValueError:
        raise ConfigError("repeats, batch_size and retries must be integers "
                          "and timeout/retry_delay numbers") from None

    extras = {
        key: value
        for key, value in (parser["extras"].items() if "extras" in parser else [])
    }
    telemetry_section = dict(parser["telemetry"]) if "telemetry" in parser else {}
    try:
        telemetry = TelemetryConfig.from_mapping(telemetry_section)
    except ValueError:
        raise ConfigError("span_capacity/flight_capacity must be integers and "
                          "slow_task_seconds a number") from None
    trace_tasks = telemetry.enabled and str(
        telemetry_section.get("trace_tasks", "false")).strip().lower() \
        in ("1", "true", "yes", "on")
    return DriverConfig(
        key=sqalpel.get("key", ""),
        dbms=target.get("dbms", sqalpel.get("dbms", "")),
        host=target.get("host", sqalpel.get("host", "")),
        server=sqalpel.get("server") or None,
        project=sqalpel.get("project") or None,
        experiment=experiment,
        repeats=repeats,
        timeout=timeout,
        batch_size=batch_size,
        retries=retries,
        retry_delay=retry_delay,
        trace_tasks=trace_tasks,
        span_log=telemetry.span_log,
        telemetry=telemetry,
        extras=extras,
    )
