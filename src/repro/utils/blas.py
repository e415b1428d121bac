"""Thread count of the OpenBLAS library that numpy's matrix products run on.

OpenBLAS starts one thread per CPU by default.  In a process-pool worker
that oversubscribes the machine: the pool already spreads jobs over the
cores, every worker's products then compete for all of them, and a BLAS
thread left idle after a product keeps spinning for about 0.1 s and slows
the numpy calls that follow.  :func:`set_blas_threads` sets the count for
the calling process; :func:`blas_threads` reads it back.

Both find the OpenBLAS library numpy runs on (the copy a numpy wheel
bundles in ``numpy.libs``, else one listed in ``/proc/self/maps``) and
call the first thread setter or getter it exports.  When no OpenBLAS is loaded
they do nothing.  The setting is process-wide, so only code that owns
its process (a pool worker) should change it, and only while no other
thread of the process is inside a BLAS call.
"""

from __future__ import annotations

import ctypes
import os
from typing import Iterator, Optional, Tuple

#: (prefix, suffix) of the exported ``<prefix>set_num_threads<suffix>``
#: and ``<prefix>get_num_threads<suffix>``, tried in order: numpy's
#: bundled scipy-openblas (64-bit-integer build, then 32-bit), then a
#: system OpenBLAS built either way.
_NAMES = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


def _openblas_paths() -> Iterator[str]:
    """Candidate OpenBLAS libraries: numpy's bundled copy, then mapped ones.

    The helper runs as each pool worker starts, so it is kept cheap: in a
    freshly forked worker, reading ``/proc/self/maps`` took about 2 ms and
    a first ``glob`` (which compiles its pattern) 1 ms, against well under
    0.1 ms for listing ``numpy.libs``.  The maps are read only when numpy
    bundles no OpenBLAS (a numpy built against a system library).
    """
    import numpy  # loads the BLAS numpy links against

    bundled = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    try:
        names = os.listdir(bundled)
    except OSError:
        names = []
    yield from sorted(os.path.join(bundled, n) for n in names if "openblas" in n.lower())
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return
    mapped = {f[5].strip() for f in fields if len(f) == 6}
    yield from sorted(p for p in mapped if "openblas" in os.path.basename(p).lower())


def _openblas() -> Optional[Tuple[ctypes.CDLL, str, str]]:
    """The first OpenBLAS library exporting a thread setter, with its name parts."""
    for path in _openblas_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            if hasattr(library, f"{prefix}set_num_threads{suffix}"):
                return library, prefix, suffix
    return None


def set_blas_threads(num_threads: int) -> bool:
    """Run the loaded OpenBLAS on ``num_threads`` threads; False when none is loaded.

    The setter starts OpenBLAS's thread pool when it is down, as it is in
    a freshly forked process, and the new pool threads then spin idle for
    about 0.1 s each.  So the pool is stopped again right after, the way
    OpenBLAS stops it before a fork; the next call that runs on more than
    one thread restarts it at the new size.
    """
    found = _openblas()
    if found is None:
        return False
    library, prefix, suffix = found
    setter = getattr(library, f"{prefix}set_num_threads{suffix}")
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(int(num_threads))
    shutdown = getattr(library, "blas_thread_shutdown_", None)
    if shutdown is not None:
        shutdown.argtypes = []
        shutdown.restype = ctypes.c_int
        shutdown()
    return True


def blas_threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or ``None`` when none is loaded."""
    found = _openblas()
    if found is None:
        return None
    library, prefix, suffix = found
    getter = getattr(library, f"{prefix}get_num_threads{suffix}")
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())
