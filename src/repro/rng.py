"""Deterministic randomness for the whole simulation.

All stochastic components draw from a :class:`SeededRng`, a thin wrapper
around :class:`random.Random` that supports *forking* — deriving an
independent, reproducible child stream from a parent stream and a string
label.  Forking keeps subsystems decoupled: adding a new consumer of
randomness does not perturb the draws seen by existing consumers, so
experiment results stay stable across library versions.

Example
-------
>>> root = SeededRng(42)
>>> admins = root.fork("admin-behavior")
>>> dns = root.fork("dns-jitter")
>>> admins.random() != dns.random()
True
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Sequence, TypeVar

from .markers import pure_function

T = TypeVar("T")

__all__ = ["SeededRng", "hash_fraction", "stable_hash"]


@pure_function
def stable_hash(*parts: object) -> int:
    """Return a 64-bit hash of ``parts`` that is stable across processes.

    Python's built-in ``hash`` is salted per process for strings, which
    would destroy reproducibility; we use BLAKE2b instead.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


@pure_function
def hash_fraction(*parts: object) -> float:
    """A deterministic draw in [0, 1) keyed on the given parts.

    The stateless alternative to a stream: the draw depends only on its
    key, never on how many draws came before, so verdicts keyed this way
    are identical however deliveries interleave across processes.
    """
    return (stable_hash(*parts) % 10_000) / 10_000.0


class SeededRng:
    """A forkable, reproducible random stream.

    Parameters
    ----------
    seed:
        Any integer.  Two :class:`SeededRng` instances built with the same
        seed produce identical draw sequences.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream keyed by ``label``.

        The child depends only on this stream's *seed* and the label, not
        on how many draws have been made, so fork order does not matter.
        """
        return SeededRng(stable_hash(self.seed, label))

    # -- checkpoint support -------------------------------------------

    def getstate(self) -> list:
        """The stream's position as JSON-compatible primitives.

        Captures the underlying Mersenne Twister state (version, the
        624-word state vector + index, and the pending ``gauss`` value),
        so a restored stream continues the *exact* draw sequence —
        stream offsets survive a checkpoint/resume round trip.
        """
        version, internal, gauss_next = self._random.getstate()
        return [version, list(internal), gauss_next]

    def setstate(self, state: "list | tuple") -> None:
        """Restore a position previously captured by :meth:`getstate`."""
        version, internal, gauss_next = state
        self._random.setstate((version, tuple(internal), gauss_next))

    # -- draw helpers -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly choose one element of a non-empty sequence."""
        return self._random.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        """Choose ``k`` distinct elements."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one element with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        return self._random.choices(list(items), weights=list(weights), k=1)[0]

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self._random.random() < p

    def expovariate(self, rate: float) -> float:
        """Exponential draw with the given rate (mean 1/rate)."""
        return self._random.expovariate(rate)

    def geometric(self, p: float) -> int:
        """Number of Bernoulli(p) trials up to and including first success (>= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        count = 1
        while not self.bernoulli(p):
            count += 1
        return count

    def pick_subset(self, seq: Iterable[T], p: float) -> List[T]:
        """Independently keep each element with probability ``p``."""
        return [item for item in seq if self.bernoulli(p)]
