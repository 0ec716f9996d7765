"""Worker count of the package: every sample loop runs on the calling thread.

Each randomized routine draws sample ``i`` from the stream seeded by
``(seed, i)`` and loops over the indices in order on the calling thread.
This module stays only because the benchmark imports it: ``bench/run.py``
records ``worker_count`` in every run and ``bench/tracer.py`` traces the
module as a layer.  A benchmark-only change deletes it.
"""

from __future__ import annotations


def worker_count() -> int:
    """Number of workers a sample loop uses: always 1."""
    return 1
