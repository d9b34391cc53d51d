"""The suite's seeded instances are pinned: a change to the matrix layer
must not silently re-seed what `skernel suite` checks."""

import hashlib
import random

from skernel.generators import random_complex

# (max_deg, max_rank, span) of every random_complex call the suite makes,
# directly or through random_sab
SUITE_SIZES = [(3, 3, 3), (2, 3, 3), (3, 2, 2), (4, 1, 2), (2, 1, 2)]
DIGEST = "99fe506cf7426e931314a50627eea651157108e37d4029cc4f77e43685591e7d"


def test_random_complex_output_is_pinned():
    h = hashlib.sha256()
    for size in SUITE_SIZES:
        for seed in range(20):
            rng = random.Random(seed)
            c = random_complex(rng, *size)
            # the next draw pins how much randomness the call consumed
            h.update(repr((size, seed, c.min_deg, c.max_deg,
                           [(n, c.rank(n), c.d(n).to_lists()) for n in c.degrees()],
                           rng.random())).encode())
    assert h.hexdigest() == DIGEST
