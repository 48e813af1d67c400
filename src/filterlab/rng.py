"""Deterministic random-number plumbing.

Every sampling entry point in the package takes an RngSpec (or a Generator
derived from one) rather than touching global state, so a (seed, stream)
pair fully pins down every byte of output.
"""

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["RngSpec", "check_count", "normal_polar"]


@dataclass(frozen=True)
class RngSpec:
    """Named handle for a reproducible random stream.

    seed is a 64-bit unsigned integer shared by a whole experiment;
    stream_id separates independent sub-streams (per component, per
    replicate block, ...) without seed arithmetic.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream_id) < 0:
            raise ValueError("stream_id must be nonnegative")

    def stream(self, stream_id):
        """The sibling spec with the same seed and a different stream id."""
        return RngSpec(self.seed, stream_id)

    def generator(self):
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream_id),))
        return np.random.default_rng(ss)


def check_count(n, least, name):
    """n as an int; ValueError naming name for a count that is not an
    integer (an int or a numpy integer) or is below least."""
    try:
        k = operator.index(n)
    except TypeError:
        k = None
    if k is None or k < least:
        raise ValueError("%s must be an integer >= %d, not %r" % (name, least, n))
    return k


def normal_polar(gen, n):
    """n standard normal draws via the Marsaglia polar rejection transform.

    Uses only gen.random(), so the draw sequence is pinned by the generator
    stream alone and does not depend on the library's own normal sampler.
    ValueError for a count that is not an integer or is negative.
    """
    n = check_count(n, 0, "n")
    out = np.empty(n)
    filled = 0
    while filled < n:
        # oversample pairs: acceptance probability is pi/4
        k = max(8, int(1.4 * (n - filled)) // 2 + 1)
        u = 2.0 * gen.random(k) - 1.0
        v = 2.0 * gen.random(k) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        u, v, s = u[ok], v[ok], s[ok]
        g = np.sqrt(-2.0 * np.log(s) / s)
        pair = np.empty(2 * len(s))
        pair[0::2] = u * g
        pair[1::2] = v * g
        take = min(len(pair), n - filled)
        out[filled : filled + take] = pair[:take]
        filled += take
    return out
