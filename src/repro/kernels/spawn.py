"""Vectorised spawn-key fan-out: many child generators from one root seed.

Fleets and other per-instance builders seed instance ``i`` from the
child ``SeedSequence(root.entropy, spawn_key=root.spawn_key + (start + i,))``.
Building that child object and a ``default_rng`` from it costs ~20 µs
per instance, almost all of it in ``SeedSequence``'s scalar mixing
loop.  Children of one root differ only in their *last* spawn word, so
this module runs NumPy's documented ``SeedSequence`` hash (NEP 19; the
algorithm of O'Neill's ``seed_seq_fe``) once over the shared prefix and
then handles every child at once in two uint32 blocks: the last word is
mixed into all four pool lanes as one ``(4, count)`` block, and the
four-word PCG64 seed is generated as one ``(8, count)`` block.  Each
state is handed to :class:`numpy.random.PCG64` through a preset
:class:`~numpy.random.bit_generator.ISeedSequence`, so
``child_generators(root, start, count)[i]`` is bit-identical to
``np.random.default_rng(<child start + i>)``.

This module imports numpy and nothing else from ``repro``.
"""

from __future__ import annotations

from typing import List

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["child_states", "child_generators"]

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # the SeedSequence default every child uses
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
#: The pool lane each of generate_state's eight output words reads.
_CYCLE = np.arange(8) % _POOL_SIZE


def _words(value: object) -> List[int]:
    """``value`` as uint32 words, the way ``SeedSequence`` coerces entropy
    and spawn keys (ints little-endian by 32-bit word, sequences
    concatenated element by element)."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint32:
        return [int(v) for v in value.ravel()]
    if isinstance(value, str):
        value = int(value, 16) if value.startswith("0x") else int(value)
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("seed entropy must be non-negative")
        out = [value & _MASK32]
        value >>= 32
        while value:
            out.append(value & _MASK32)
            value >>= 32
        return out
    return [word for item in value for word in _words(item)]


class _HashMix:
    """``seed_seq_fe``'s ``hashmix``, whose multiplier advances on every call.

    Values are Python ints or uint32 arrays: the same expressions serve
    both, since uint32 array arithmetic already wraps modulo 2**32.
    """

    def __init__(self, const: int) -> None:
        self.const = const

    def __call__(self, value, mult: int = _MULT_A):
        """Hash ``value`` with the current multiplier, then advance it."""
        const = self.const
        self.const = (const * mult) & _MASK32
        value = ((value ^ const) * self.const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def rows(self, values: np.ndarray, mult: int) -> np.ndarray:
        """``len(values)`` successive calls as one block: row ``i`` of the
        uint32 ``values`` hashed by the ``i``-th call's constants."""
        consts = [self.const]
        for _ in range(len(values)):
            consts.append((consts[-1] * mult) & _MASK32)
        self.const = consts[-1]
        consts = np.array(consts, dtype=np.uint32)[:, None]
        out = values ^ consts[:-1]
        out *= consts[1:]
        out ^= out >> _XSHIFT
        return out


def _mix(x, y):
    """``seed_seq_fe``'s two-word mix (Python ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def child_states(root: np.random.SeedSequence, start: int, count: int) -> np.ndarray:
    """``(count, 4)`` uint64 PCG64 seeds of children ``start .. start+count-1``.

    Row ``i`` equals ``SeedSequence(root.entropy, spawn_key=
    tuple(root.spawn_key) + (start + i,)).generate_state(4, np.uint64)``.
    The root's entropy and spawn-key prefix are mixed into the pool once;
    only the last spawn word varies, and every child's lanes and output
    words are computed together.  Child indices must fit one uint32 word.
    """
    if start < 0 or count < 0 or start + count > _MASK32 + 1:
        raise ValueError("child indices must lie in [0, 2**32)")
    run = _words(root.entropy)
    # A non-empty spawn key pads the run entropy to the pool size.
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words(tuple(root.spawn_key))
    hashmix = _HashMix(_INIT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # The varying last word is always past the pool, so it is absorbed
    # by the trailing loop's last pass: four hashes, one per pool lane,
    # computed as one (4, count) block of _mix(pool[dst], hash).
    last = np.arange(start, start + count, dtype=np.uint32)
    hashed = hashmix.rows(np.broadcast_to(last, (_POOL_SIZE, count)), _MULT_A)
    lanes = np.array([(_MIX_MULT_L * p) & _MASK32 for p in pool], dtype=np.uint32)
    lanes = lanes[:, None] - np.uint32(_MIX_MULT_R) * hashed
    lanes ^= lanes >> _XSHIFT
    # generate_state(4, uint64): eight uint32 words cycling the pool, as
    # one (8, count) block, paired little-endian into uint64.
    words = _HashMix(_INIT_B).rows(lanes[_CYCLE], _MULT_B)
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _PresetSeed(ISeedSequence):
    """An ``ISeedSequence`` that hands PCG64 one precomputed state."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        """The preset ``(4,)`` uint64 state (the only request PCG64 makes)."""
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset seed only serves PCG64's 4 x uint64 request")
        return self.state


def child_generators(
    root: np.random.SeedSequence, start: int, count: int
) -> List[np.random.Generator]:
    """``default_rng`` of children ``start .. start+count-1``, bit-identical
    to building each child ``SeedSequence`` separately."""
    return [
        np.random.Generator(np.random.PCG64(_PresetSeed(state)))
        for state in child_states(root, start, count)
    ]
