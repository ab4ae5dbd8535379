"""One way to pause Python's cyclic garbage collector around a call.

`diagonalize`, `solve_dpll`, `forge` and `verify_certificate` allocate
thousands of short-lived containers (syntax-tree nodes; clause, watch and
learned-clause lists; trial records) and drop them on return.  Each few
hundred allocations would start a collection that walks them and the
caller's whole live heap, though none of these calls leaves a reference
cycle: reference counting frees everything they build.  So pausing the
collector removes scans and frees nothing later.

Do not pause a call whose result keeps its allocations alive (say
`tableau.encode`): the young collection is then only deferred to the moment
the collector comes back.
"""

from __future__ import annotations

import functools
import gc


def pause_collector(fn):
    """`fn`, run with the cyclic collector disabled.

    The state found is restored when `fn` returns or raises, so nested
    paused calls leave it as the outermost one found it.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
