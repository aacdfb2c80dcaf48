"""The pluggable kernel-backend seam.

Every stacked (fleet) GEMM in :mod:`repro.kernels.fleet` is issued
through the backend installed here instead of calling ``np.matmul``
directly.  That one level of indirection buys two things:

* **Swappability** — a numba/C/BLIS backend can drop in later by
  subclassing :class:`KernelBackend` and calling :func:`set_backend`
  (or the scoped :func:`use_backend`), with zero changes to the fleet
  kernels, the ``Fleet`` API, or the workloads built on them.
* **Testability** — a recorded-call fake installed via
  :func:`use_backend` proves that learner/workload code paths really
  route their GEMMs through the seam (see
  ``tests/kernels/test_backend.py``).

Fleet features and weights are float64: every margin is the exact
additive-delay sum in binary64.  Responses are ±1 ``int8`` and all
sign-domain arithmetic (XOR combination, majority-vote counting, the
uniqueness row counts) is exact integer work.
"""

from __future__ import annotations

import abc
import contextlib
import contextvars
from typing import Iterator, Optional

import numpy as np

class KernelBackend(abc.ABC):
    """One GEMM provider behind the fleet kernels.

    Subclasses implement :meth:`gemm`; everything else in the fleet
    layer (feature construction, sign combination, voting, metrics) is
    dtype-exact numpy the backend never needs to replace.
    """

    #: Human-readable backend identifier (recorded in benchmark payloads).
    name: str = "abstract"

    @abc.abstractmethod
    def gemm(self, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``features (M, d) @ weights (d, N)``."""


class NumpyBackend(KernelBackend):
    """The default backend: one BLAS ``matmul``."""

    name = "numpy"

    def gemm(self, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
        features = np.asarray(features)
        weights = np.asarray(weights)
        if features.ndim != 2 or weights.ndim != 2:
            raise ValueError(
                f"gemm expects 2-D operands, got {features.shape} @ {weights.shape}"
            )
        if features.shape[1] != weights.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: {features.shape} @ {weights.shape}"
            )
        return features @ weights


# ----------------------------------------------------------------------
# Ambient installation point (context-local, like the query meter).
# ----------------------------------------------------------------------
_BACKEND: contextvars.ContextVar[Optional[KernelBackend]] = contextvars.ContextVar(
    "repro_kernel_backend", default=None
)
_DEFAULT = NumpyBackend()


def get_backend() -> KernelBackend:
    """The installed backend, defaulting to :class:`NumpyBackend`."""
    backend = _BACKEND.get()
    return _DEFAULT if backend is None else backend


def set_backend(backend: Optional[KernelBackend]) -> None:
    """Install ``backend`` process-wide (``None`` restores the default)."""
    if backend is not None and not isinstance(backend, KernelBackend):
        raise TypeError(f"expected a KernelBackend, got {type(backend).__name__}")
    _BACKEND.set(backend)


@contextlib.contextmanager
def use_backend(backend: KernelBackend) -> Iterator[KernelBackend]:
    """Temporarily install ``backend`` for the enclosed block."""
    if not isinstance(backend, KernelBackend):
        raise TypeError(f"expected a KernelBackend, got {type(backend).__name__}")
    token = _BACKEND.set(backend)
    try:
        yield backend
    finally:
        _BACKEND.reset(token)
