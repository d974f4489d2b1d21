"""Serial stand-ins for the benchmark harness.

nilflow runs on one thread, and nothing in the package calls this module.
perfbench still reads ``worker_count`` for its run manifest and wraps
``ordered_map`` by attribute, so both stay until the harness stops naming
them; then this file goes (ROADMAP.md, item 2).
"""


def worker_count():
    """Number of workers a run uses: always one."""
    return 1


def ordered_map(fn, items):
    """Apply fn to each item in order."""
    return [fn(x) for x in items]
