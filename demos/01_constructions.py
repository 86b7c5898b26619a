"""Tour of the three frozen-set constructions.

A code here is a subset of the 2**m leaf paths of a depth-m recursion tree.
Each path is a binary string (i_1 .. i_m); its index packs i_1 as the most
significant bit.  This script builds the same-size code three ways and shows
how much the resulting information sets agree.
"""

import tempfile

import numpy as np

from rmpolar import (
    Channel,
    Path,
    bec_erasure_parameters,
    freeze_bec,
    freeze_montecarlo,
    freeze_rm,
    load_frozen_set,
    monomial_codeword,
    rm_dimension,
    save_frozen_set,
)

m = 4
n = 1 << m

# A path and its bookkeeping.
p = Path.from_index(0b1011, m)
print(f"path {p.bits} -> index {p.index}, weight {p.weight}")
word = monomial_codeword(p)
print(f"its monomial evaluates to {''.join(map(str, word))}, "
      f"a codeword of weight {word.sum()} = 2**(m - {p.weight})")
print()

# Construction 1: keep every path of weight <= r.  The dimension follows
# the binomial sum rm_dimension(r, m).
r = 2
by_weight = freeze_rm(r, m)
print(f"weight rule, order {r}: dimension {by_weight.dimension} "
      f"(= sum of C({m},w) for w <= {r} = {rm_dimension(r, m)})")

# Construction 2: rank paths by the exact erasure parameter of their synthetic
# channel under an erasure rate z, then keep the k most reliable.
z = 0.5
params = bec_erasure_parameters(m, z)
by_design = freeze_bec(m, by_weight.dimension, z)
print(f"erasure design at z={z}: dimension {by_design.dimension}")
print(f"  erasure parameters span [{params.min():.3g}, {params.max():.3g}]")

# Construction 3: estimate per-path error rates by genie-aided decoding of
# random frames, then keep the k best.  Noisier, but works for any channel.
by_sample = freeze_montecarlo(m, by_weight.dimension, Channel.bec(z),
                              trials=20000, seed=1)

sets = {
    "weight rule": set(by_weight.info_indices.tolist()),
    "erasure design": set(by_design.info_indices.tolist()),
    "sampled": set(by_sample.info_indices.tolist()),
}
print()
for name, indices in sets.items():
    print(f"{name:15s} info indices: {sorted(indices)}")
overlap = sets["erasure design"] & sets["sampled"]
print(f"design vs sampled overlap: {len(overlap)}/{by_design.dimension}")

# The frozen-set file format is a one-line header plus ascending indices.
with tempfile.NamedTemporaryFile(suffix=".txt", delete=False) as fh:
    save_frozen_set(by_design, fh.name)
    text = open(fh.name).read()
print()
print("serialized form:")
print(text)
assert load_frozen_set(fh.name) == by_design
print("round trip ok")

# Degenerate erasure rates make every path certain; ties then resolve toward
# the smaller index, so the information set is just the first k indices.
tied = freeze_bec(3, 4, 0.0)
assert np.array_equal(tied.info_indices, [0, 1, 2, 3])
print("tie rule at z=0: info set", tied.info_indices.tolist())
