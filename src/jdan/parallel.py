"""The machine's core count and a plain ordered map.

Nothing in jdan calls either; perfbench records ``worker_count()`` with each
run and traces ``ordered_map`` by name, so both stay until that lookup goes.
"""

import os


def worker_count():
    return os.cpu_count() or 1


def ordered_map(fn, items):
    return [fn(it) for it in items]
