"""Run manifests and the shared host/metadata block.

Every exported trace file and every ``benchmarks/bench_*.py`` artifact
embeds the same host block, so runs recorded on different hosts (or
different numpy/word-layout/backend configurations) stay comparable and
correlatable.  ``MANIFEST_SCHEMA_VERSION`` is bumped whenever a key is
added or renamed.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Optional

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "host_metadata",
    "run_manifest",
]

#: Version of the manifest/host block layout shared by trace files and
#: benchmark artifacts.
MANIFEST_SCHEMA_VERSION = 2


def host_metadata() -> dict:
    """The uniform host/configuration block.

    Identical in shape across trace manifests and all bench artifacts:
    cpu count, python/numpy versions, platform string, active word
    layout, resolved backend, the L2 bytes the kernel tiles were sized
    against, and the block's schema version.
    """
    import numpy as np

    from ..backends import resolve_backend_name
    from ..bitops.packing import DEFAULT_LAYOUT
    from ..engine.tiling import working_set_budget

    try:
        backend = resolve_backend_name(None)
    except ValueError:
        backend = "auto"
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "host_cpus": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "python_impl": platform.python_implementation(),
        "numpy": np.__version__,
        "word_layout": DEFAULT_LAYOUT.name,
        "word_bits": DEFAULT_LAYOUT.bits,
        "backend": backend,
        "l2_bytes": working_set_budget(),
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else "",
    }


def run_manifest(run, config: "Optional[dict]" = None) -> dict:
    """The manifest record heading an exported trace file.

    ``run`` is a :class:`~repro.telemetry.session.RunTelemetry`;
    ``config`` an optional plain dict describing the search
    configuration (approach, order, workers, ...).
    """
    doc = {
        "type": "manifest",
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "run_id": run.run_id,
        "mode": run.mode,
        "started_at": run.started_at,
        "finished_at": run.finished_at,
        "host": host_metadata(),
    }
    if config:
        doc["config"] = dict(config)
    return doc
