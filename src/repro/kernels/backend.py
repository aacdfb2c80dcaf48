"""The pluggable kernel-backend seam and the dtype-tier contract.

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

Dtype tiers
-----------
Fleet evaluation supports three dtype tiers, selected by name:

``"float64"``
    The reference tier: features and weights in binary64.
``"float32"``
    Features and weights demoted to binary32 — half the memory
    traffic and roughly double BLAS throughput.  *Not* bit-identical
    to float64 for Gaussian weights; the conformance relations check
    it with fsum guard bands, and it is bit-identical whenever all
    weights are integer-valued small enough for exact binary32 sums.
``"int8"``
    Features stay ±1 ``int8`` (8x smaller working set than float64);
    the GEMM upcasts each feature slab to the weight dtype, so results
    are **bit-identical to the float64 tier by construction** — ±1 is
    exact in every float format.  A future integer-GEMM backend can
    exploit the int8 storage directly through this same seam.

The tier governs *storage and GEMM precision* only; responses are
always ±1 ``int8`` and all sign-domain arithmetic (XOR combination,
majority-vote counting, the uniqueness row counts) is exact integer work
in every tier.
"""

from __future__ import annotations

import abc
import contextlib
import contextvars
from typing import Iterator, Optional

import numpy as np

#: The supported dtype tiers, fastest-reference-first.
DTYPE_TIERS = ("float64", "float32", "int8")

def validate_tier(tier: str) -> str:
    """Return ``tier`` unchanged, or raise ``ValueError`` for unknowns."""
    if tier not in DTYPE_TIERS:
        raise ValueError(f"unknown dtype tier {tier!r}; expected one of {DTYPE_TIERS}")
    return tier


def feature_dtype(tier: str) -> np.dtype:
    """Storage dtype for ±1 feature matrices under ``tier``."""
    validate_tier(tier)
    return np.dtype(
        {"float64": np.float64, "float32": np.float32, "int8": np.int8}[tier]
    )


def weight_dtype(tier: str) -> np.dtype:
    """Weight (and margin) dtype under ``tier``.

    The ``int8`` tier keeps weights in float64 — its margins are
    bit-identical to the float64 tier; only the feature storage shrinks.
    """
    validate_tier(tier)
    return np.dtype(np.float32 if tier == "float32" else np.float64)


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
        """``features (M, d) @ weights (d, N)`` in the weights' dtype.

        ``features`` may be any real dtype (int8 feature slabs are
        upcast to ``weights.dtype`` before multiplying, which keeps the
        int8 tier bit-identical to float64).
        """


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
        out_dtype = weights.dtype
        if features.dtype != out_dtype:
            # int8 (or mismatched float) feature slabs upcast to the
            # weight dtype; ±1 is exact in every float format, so the
            # int8 tier reproduces the float64 tier bit for bit.
            cast = features.astype(out_dtype, copy=False)
        else:
            cast = features
        return cast @ weights


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
