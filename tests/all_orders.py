"""An all-orders oracle for the worst-case adversary.

`exhaustive-min` and `increasing` are read off the sample path
(`exact._replay`), or for matching from a minimum-weight maximal matching
(`exact.min_maximal_accepts`). The oracle shares no code with either: it
hands `exact.policy_run` every permutation of the elements in turn, as the
random adversary's (n, columns) orders over one exact block of all 2**n
configurations, and keeps each configuration's least reward total. So a
defect in the path walk shows as a configuration whose claimed minimum is
not the least total over all n! orders.
"""

from itertools import permutations

import numpy as np

from sspilab.core import trial_rng
from sspilab.exact import ConfigEnsemble, policy_run, reduction_partitions

ORACLE_MAX_N = 6  # 720 orders per partition


def order_search_misses(instance, policy: str, adversary: str, seed: int) -> int:
    """The number of (partition, configuration) cells, over every reduction
    partition the policy runs on, where the reward total of the policy
    against `adversary` is not the minimum over all arrival orders. The
    realizations are those exact `simulate` draws at `seed`."""
    n = instance.ground_size
    assert n <= ORACLE_MAX_N, f"the all-orders oracle takes n <= {ORACLE_MAX_N}, got {n}"
    ens = ConfigEnsemble(instance.structure, instance.draw_realizations(trial_rng(seed, 0)))
    values = ens.values_at(ens.ridx)  # (n, configurations) rewards
    partitions = reduction_partitions(instance, policy)
    misses = 0
    for grouping, _ in partitions:
        least = np.full(ens.num_configs, np.inf)
        for order in permutations(range(n)):
            orders = np.repeat(np.array(order)[:, None], ens.num_configs, axis=1)
            accepted = policy_run(ens, policy, orders, grouping).accepted
            np.minimum(least, (values * accepted).sum(axis=0), out=least)
        claimed = (values * policy_run(ens, policy, adversary, grouping).accepted).sum(axis=0)
        # Float sums of different sets can tie exactly and round apart.
        misses += int((~np.isclose(claimed, least, rtol=1e-12, atol=0)).sum())
    return misses
