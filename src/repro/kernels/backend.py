"""The pluggable kernel-backend seam and the dtype-tier contract.

Every stacked (fleet) GEMM in :mod:`repro.kernels.fleet` is issued
through the backend installed here instead of calling ``np.matmul``
directly.  That one level of indirection buys three things:

* **Swappability** — a numba/C/BLIS backend can drop in later by
  subclassing :class:`KernelBackend` and calling :func:`set_backend`
  (or the scoped :func:`use_backend`), with zero changes to the fleet
  kernels, the ``Fleet`` API, or the workloads built on them.
* **Testability** — a recorded-call fake installed via
  :func:`use_backend` proves that learner/workload code paths really
  route their GEMMs through the seam (see
  ``tests/kernels/test_backend.py``).
* **Thread-level parallelism** — the default :class:`NumpyBackend`
  can tile the row dimension of a stacked GEMM over a thread pool
  *inside* a trial; NumPy releases the GIL in BLAS, so slabs multiply
  concurrently.

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
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional

import numpy as np

#: The supported dtype tiers, fastest-reference-first.
DTYPE_TIERS = ("float64", "float32", "int8")

#: Row count below which thread tiling is never worth the dispatch cost.
_MIN_ROWS_PER_THREAD = 256


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
    """The default backend: BLAS ``matmul`` with optional row tiling.

    Parameters
    ----------
    threads:
        Worker threads for row-slab tiling.  ``None`` reads
        ``$REPRO_KERNEL_THREADS`` (default 1).  With ``threads > 1``
        and enough rows, the (M, d) feature matrix is split into
        contiguous row slabs multiplied concurrently; each output row
        is still produced by one ordinary ``matmul`` over the full
        inner dimension, so exact-integer GEMMs stay bit-identical to
        the single-threaded result.
    """

    def __init__(self, threads: Optional[int] = None) -> None:
        if threads is None:
            threads = int(os.environ.get("REPRO_KERNEL_THREADS", "1"))
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self.name = f"numpy[threads={threads}]"

    # ------------------------------------------------------------------
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
        rows = cast.shape[0]
        if self.threads == 1 or rows < _MIN_ROWS_PER_THREAD * 2:
            return cast @ weights
        return self._tiled(cast, weights)

    def _tiled(self, features: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Row-slab tiled matmul over a private thread pool."""
        rows = features.shape[0]
        slabs = min(self.threads, max(1, rows // _MIN_ROWS_PER_THREAD))
        bounds = np.linspace(0, rows, slabs + 1, dtype=np.int64)
        out = np.empty((rows, weights.shape[1]), dtype=weights.dtype)

        def work(lo: int, hi: int) -> None:
            np.matmul(features[lo:hi], weights, out=out[lo:hi])

        with ThreadPoolExecutor(max_workers=slabs) as pool:
            futures = [
                pool.submit(work, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
            for future in futures:
                future.result()
        return out


# ----------------------------------------------------------------------
# Ambient installation point (context-local, like the query meter).
# ----------------------------------------------------------------------
_BACKEND: contextvars.ContextVar[Optional[KernelBackend]] = contextvars.ContextVar(
    "repro_kernel_backend", default=None
)
_DEFAULT = NumpyBackend()


def get_backend() -> KernelBackend:
    """The installed backend, defaulting to a single-thread NumpyBackend."""
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
