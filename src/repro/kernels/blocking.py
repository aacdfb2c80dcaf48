"""Block iteration shared by the character kernel and the CRP generator.

One implementation of the ``(start, stop)`` block walk serves both the
noiseless evaluation in :func:`repro.pufs.crp.generate_crps` and the
character-kernel GEMMs in :mod:`repro.kernels.character`.  The two
consumers use different default block sizes because their working sets
differ:

* :data:`DEFAULT_BLOCK_SIZE` — rows per block for ideal PUF evaluation
  during CRP generation, where the per-row working set is one
  ``(n+1)``-float feature vector (8192 x 65 floats ~ 4 MB);
* :data:`DEFAULT_CHARACTER_BLOCK` — columns per block for the character
  matrix, where the working set is ``N`` rows of ``block_size`` floats and
  ``N`` (the number of degree-<=d subsets) can reach the thousands, so a
  smaller block keeps the active rows cache-resident.
"""

from __future__ import annotations

from typing import Iterator, Tuple

#: Default rows per block for CRP work: 8192 challenges x 65 float64
#: features ~ 4 MB, comfortably inside L2/L3 on anything modern.
DEFAULT_BLOCK_SIZE = 8192

#: Default columns per character-matrix block: each character row is then
#: 32 KB, so parent row + x row + output row stay in L1/L2 during the
#: incremental construction.
DEFAULT_CHARACTER_BLOCK = 4096


def iter_blocks(m: int, block_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` row ranges covering ``range(m)``."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    for start in range(0, m, block_size):
        yield start, min(start + block_size, m)
