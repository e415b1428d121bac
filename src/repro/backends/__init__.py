"""Pluggable solver backends behind one protocol and one registry.

Importing this package registers the four built-in backends:

========== ==================================================== ==========
name       wraps                                                mixed NE
========== ==================================================== ==========
cnash      :class:`repro.core.solver.CNashSolver`               yes
squbo      :class:`repro.baselines.dwave_like.DWaveLikeSolver`  no
exact      support enumeration / Lemke–Howson                   yes
portfolio  registry-driven fallback chain (data, not code)      yes
========== ==================================================== ==========

Registering a custom backend takes one line and makes it reachable from
:func:`repro.api.solve`, :func:`repro.api.compare`, the experiment
runner, the scheduler and the TCP server — with zero ``service/``
changes::

    from repro.backends import register_backend

    class MyBackend:
        name = "my-solver"
        def capabilities(self): ...
        def solve(self, game, spec): ...

    register_backend(MyBackend())
"""

from repro.backends.base import (
    Backend,
    BackendCapabilities,
    SolveReport,
    SolveSpec,
    observe_backend_latency,
    profiles_from_wire,
    profiles_to_wire,
)
from repro.backends.registry import (
    UnknownBackendError,
    available_backends,
    backend_capabilities,
    get_backend,
    is_registered,
    register_backend,
    registry_fingerprint,
    temporary_backend,
    unregister_backend,
)
from repro.backends.adapters import (
    EXACT_ENUMERATION_LIMIT,
    CNashBackend,
    ExactBackend,
    PortfolioBackend,
    SQuboBackend,
    config_from_spec,
    label_is_exact,
    profiles_verified,
    register_builtin_backends,
    verification_epsilon,
)

register_builtin_backends()

__all__ = [
    "Backend",
    "BackendCapabilities",
    "SolveReport",
    "SolveSpec",
    "observe_backend_latency",
    "profiles_to_wire",
    "profiles_from_wire",
    "UnknownBackendError",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "is_registered",
    "available_backends",
    "backend_capabilities",
    "registry_fingerprint",
    "temporary_backend",
    "CNashBackend",
    "SQuboBackend",
    "ExactBackend",
    "PortfolioBackend",
    "EXACT_ENUMERATION_LIMIT",
    "config_from_spec",
    "label_is_exact",
    "profiles_verified",
    "verification_epsilon",
    "register_builtin_backends",
]
