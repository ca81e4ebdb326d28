"""The greedy-objective right side: the counting DP over scalar greedy states
must give the same per-index counts as replaying the greedy on every
configuration, and the verifier must not read the flag tables for it."""

import numpy as np
from hypothesis import given, strategies as st

import sspilab.analysis as analysis
from sspilab.core import discrete, point_mass, trial_rng
from sspilab.exact import ConfigEnsemble
from sspilab.feasibility import path_walk
from sspilab.generators import STRUCTURE_KINDS, random_instance
from sspilab.instances import Instance


def enumerated_recount(ens: ConfigEnsemble) -> list[int]:
    """Per path index, the configurations whose heads-side greedy admits the
    element there: the scalar walk along the path (`path_walk`), one
    configuration at a time."""
    path = ens.path
    y_of = [path.y_index(e) for e in range(ens.n)]
    recount = [0] * ens.length
    for mask in range(ens.num_configs):
        sol = path_walk(ens.structure, path, mask, "H").solution
        for e in sol.chosen:
            jy = y_of[e]
            recount[jy if mask & (1 << e) else path.partner[jy]] += 1
    return recount


def _ensemble(kind: str, n: int, seed: int, laws: str) -> ConfigEnsemble:
    rng = np.random.default_rng(seed)
    inst = random_instance(kind, n, rng)
    if laws == "point-mass":  # few distinct values: ties across elements
        dists = {e: point_mass(float(rng.integers(0, 3))) for e in range(n)}
        inst = Instance(inst.name, inst.structure, dists)
    elif laws == "discrete":  # ties within and across elements
        dists = {e: discrete([1.0, 2.0], [0.5, 0.5]) for e in range(n)}
        inst = Instance(inst.name, inst.structure, dists)
    return ConfigEnsemble(inst.structure, inst.draw_realizations(trial_rng(seed, 0)))


@given(
    kind=st.sampled_from(STRUCTURE_KINDS),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    laws=st.sampled_from(("generated", "point-mass", "discrete")),
)
def test_dp_recount_equals_the_enumeration(kind, n, seed, laws):
    ens = _ensemble(kind, n, seed, laws)
    recount, visited = analysis._greedy_recount(ens)
    assert recount == enumerated_recount(ens)
    # Merging only shrinks a layer below its coin prefixes.
    coins_set = np.cumsum(ens.is_y)
    assert visited <= 1 + sum(2 ** int(k) for k in coins_set)


def test_flipped_flag_table_entry_fails_the_lemma():
    ens = _ensemble("matching", 6, 3, "generated")
    good = analysis._verify_greedy_objective(ens)
    assert good.passed
    assert good.detail.endswith(f"greedy states over {ens.num_configs} configurations")
    # One heads entry of positive value: flipping its free flag moves the
    # left side by that value.
    j, c = np.argwhere(ens.heads & (ens.w_val > 0)[:, None])[0]
    ens.free("H")[j, c] ^= True
    bad = analysis._verify_greedy_objective(ens)
    assert not bad.passed
    assert bad.detail == "flag-table objective != replayed greedy objective"
    assert bad.lhs != good.lhs
    assert bad.rhs == good.rhs
    assert bad.configurations == good.configurations
