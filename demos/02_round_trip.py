"""Encode a frame, push it through a noisy channel, decode it back.

Uses the (8, 4) code given by the weight rule at order 1.  The decoder walks
the recursion tree leaf by leaf, deciding each information bit from the
channel beliefs and every decision already made.
"""

import numpy as np

from rmpolar import (
    Channel,
    encode,
    freeze_rm,
    list_decode,
    modulate,
    posteriors,
    random_info_bits,
    sc_decode,
    transmit,
)

spec = freeze_rm(1, 3)
print(f"code: n={spec.n}, k={spec.dimension}, info indices {spec.info_indices.tolist()}")

rng = np.random.default_rng(2)
info = np.array([1, 0, 1, 1], dtype=np.uint8)
cw = encode(spec, info)
print(f"info {info} -> codeword {cw}")

# Antipodal symbols over a binary symmetric channel with 6% flips.
ch = Channel.bsc(0.06)
y = transmit(ch, modulate(cw), rng)
flipped = np.flatnonzero(y != modulate(cw))
print(f"channel flipped positions {flipped.tolist()}")

# The decoder consumes per-position beliefs, stored as log-likelihood ratios
# in favor of bit 0.
sv = posteriors(ch, y)
print(f"belief that bit 0 was sent, per position: {np.round(sv.q, 3)}")

res = sc_decode(spec, sv)
print(f"decoded info {res.info_bits}  (sent {info})")
print(f"re-encoded word {res.codeword}, kernel evaluations {res.op_count}")
print(f"leaf posteriors for the decided bits: {np.round(res.leaf_posteriors, 3)}")
assert np.array_equal(res.info_bits, info)
print()

# A block of frames, one per row, shares the same tree walk.  The list
# decoder at list size 1 is successive cancellation, and its rank-1
# candidates of every frame are the decisions.  A quick frame error estimate
# at this noise level:
trials = 20000
words = random_info_bits(spec, rng, size=trials)
yb = transmit(ch, modulate(encode(spec, words)), rng)
decided = list_decode(spec, posteriors(ch, yb), list_size=1).best.info_bits
fer = np.mean(np.any(decided != words, axis=1))
print(f"frame error rate over {trials} frames at p=0.06: {fer:.4f}")
