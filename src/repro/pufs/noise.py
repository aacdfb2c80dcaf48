"""Measurement-noise handling: majority voting and stable-CRP filtering.

The paper's Table II/III experiments use "noiseless and stable CRPs"
collected from hardware — in practice one measures each challenge several
times and keeps only challenges whose response never flips.  These helpers
reproduce that collection protocol against our noisy simulators; every
repeated measurement is one :meth:`~repro.pufs.base.PUF.eval_noisy_repeated`
call.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.pufs.base import PUF
from repro.pufs.crp import ChallengeSampler, CRPSet, uniform_challenges


def majority_vote(
    puf: PUF,
    challenges: np.ndarray,
    repetitions: int = 11,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Majority-voted responses over ``repetitions`` noisy measurements.

    Odd repetition counts avoid ties; even counts break ties toward +1.
    """
    meas = puf.eval_noisy_repeated(challenges, repetitions, rng)
    sums = np.sum(meas.astype(np.int32), axis=0)
    return np.where(sums >= 0, 1, -1).astype(np.int8)


def stable_challenge_mask(
    puf: PUF,
    challenges: np.ndarray,
    repetitions: int = 11,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Boolean mask of challenges whose response never flips across measurements."""
    meas = puf.eval_noisy_repeated(challenges, repetitions, rng)
    return np.all(meas == meas[0], axis=0)


def collect_stable_crps(
    puf: PUF,
    target: int,
    repetitions: int = 11,
    rng: Optional[np.random.Generator] = None,
    sampler: ChallengeSampler = uniform_challenges,
    max_batches: int = 50,
) -> Tuple[CRPSet, float]:
    """Collect ``target`` stable CRPs the way the paper's authors did.

    Draws challenge batches, measures each challenge ``repetitions`` times,
    keeps only the stable ones, and returns (CRPSet, stable_fraction).
    Raises RuntimeError if the device is so noisy that the target cannot be
    reached within ``max_batches`` batches.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    rng = np.random.default_rng() if rng is None else rng
    kept_challenges = []
    kept_responses = []
    drawn = 0
    kept = 0
    for _ in range(max_batches):
        batch = sampler(max(target, 1024), puf.n, rng)
        drawn += batch.shape[0]
        meas = puf.eval_noisy_repeated(batch, repetitions, rng)
        stable = np.all(meas == meas[0], axis=0)
        kept_challenges.append(batch[stable])
        kept_responses.append(meas[0][stable])
        kept += int(np.sum(stable))
        if kept >= target:
            break
    if kept < target:
        raise RuntimeError(
            f"only {kept} stable CRPs found after {drawn} challenges; "
            "device too noisy for the requested target"
        )
    challenges = np.concatenate(kept_challenges, axis=0)[:target]
    responses = np.concatenate(kept_responses, axis=0)[:target]
    return CRPSet(challenges, responses), kept / drawn
