"""Exact-mode expectations pinned as rationals.

The strings in PINS were recorded from the exact evaluator as it stood before
it moved to path-rank comparisons; every refactor of exact mode must
reproduce them bit for bit. The cases cover the six policies under every
exact adversary, on the fixture files and on seeded generated instances
(n = 8-10), including point-mass-0 elements, reduction-custom partitions (one
of them leaves an element outside every group) and a four-vertex graphic
instance.
"""

from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from sspilab.core import point_mass
from sspilab.feasibility import Graphic, SimplePartition
from sspilab.generators import random_distribution, random_instance
from sspilab.harness import EXACT_ADVERSARIES, estimate_ratio, report_fields
from sspilab.instances import Instance, load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FIXTURE_POLICIES = {
    "graphic-star": ("reduction-graphic",),
    "rank1-exponential": ("rank1", "laminar"),
    "transversal-small": ("transversal",),
    "triangle-matching": ("matching",),
    "two-layer": ("laminar",),
}


def _with_zero(inst: Instance, e: int = 0) -> Instance:
    """The instance with element e's law replaced by a point mass at 0."""
    dists = dict(inst.distributions)
    dists[e] = point_mass(0.0)
    return replace(inst, distributions=dists)


def _with_partition(inst: Instance, groups) -> Instance:
    return replace(
        inst,
        partition=SimplePartition(tuple(tuple(g) for g in groups)),
        partition_alpha=2.0,
    )


def _generated() -> dict[str, tuple[Instance, tuple[str, ...]]]:
    rng = np.random.default_rng(2024)
    matching = _with_zero(random_instance("matching", 8, rng))
    transversal = random_instance("transversal", 10, rng)
    laminar = _with_partition(
        _with_zero(random_instance("truncated-partition", 9, rng), 3),
        [[0, 1, 2], [3, 4], [5, 6, 7, 8]],
    )
    rank1 = random_instance("rank1", 9, rng)
    simple = random_instance("simple-partition", 9, rng)
    # Element 8 lies outside every group of this partition.
    simple = _with_partition(_with_zero(simple), [[0, 4], [1, 5, 7], [2, 3, 6]])
    edges = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3))
    graphic = Instance(
        "graphic-k4-n8",
        Graphic(4, edges),
        {e: random_distribution(rng) for e in range(len(edges))},
    )
    graphic = _with_partition(_with_zero(graphic, 5), [[0, 3], [1, 4, 6], [2, 5, 7]])
    return {
        "matching-n8": (matching, ("matching",)),
        "transversal-n10": (transversal, ("transversal",)),
        "laminar-n9": (laminar, ("laminar", "reduction-custom")),
        "rank1-n9": (rank1, ("rank1", "laminar")),
        "simple-n9": (simple, ("reduction-custom",)),
        "graphic-n8": (graphic, ("reduction-graphic", "reduction-custom")),
    }


@lru_cache(maxsize=1)
def cases() -> dict[str, tuple[Instance, str, str, int]]:
    """Case id -> (instance, policy, adversary, seed)."""
    out = {}
    for name, policies in FIXTURE_POLICIES.items():
        inst = load_instance(FIXTURES / f"{name}.json")
        for seed in (0, 1):
            for policy in policies:
                for adversary in EXACT_ADVERSARIES:
                    out[f"{name}/{policy}/{adversary}/{seed}"] = (
                        inst, policy, adversary, seed,
                    )
    for name, (inst, policies) in _generated().items():
        for policy in policies:
            for adversary in EXACT_ADVERSARIES:
                out[f"{name}/{policy}/{adversary}/5"] = (inst, policy, adversary, 5)
    return out


def exact_strings(case) -> tuple[str, str, str]:
    inst, policy, adversary, seed = case
    fields = report_fields(
        estimate_ratio(inst, policy, adversary=adversary, mode="exact", seed=seed)
    )
    return fields["E_ALG"], fields["E_OPT"], fields["E_OPT_PRIME"]


PINS: dict[str, tuple[str, str, str]] = {
    "graphic-n8/reduction-custom/exhaustive-min/5": (
        "37385974337909293/9007199254740992",
        "81272622975544323/9007199254740992",
        "81272622975544323/9007199254740992",
    ),
    "graphic-n8/reduction-custom/fixed/5": (
        "19371575828427309/4503599627370496",
        "81272622975544323/9007199254740992",
        "81272622975544323/9007199254740992",
    ),
    "graphic-n8/reduction-custom/increasing/5": (
        "37385974337909293/9007199254740992",
        "81272622975544323/9007199254740992",
        "81272622975544323/9007199254740992",
    ),
    "graphic-n8/reduction-graphic/exhaustive-min/5": (
        "471101168438909485/108086391056891904",
        "81272622975544323/9007199254740992",
        "81272622975544323/9007199254740992",
    ),
    "graphic-n8/reduction-graphic/fixed/5": (
        "479661058393720411/108086391056891904",
        "81272622975544323/9007199254740992",
        "81272622975544323/9007199254740992",
    ),
    "graphic-n8/reduction-graphic/increasing/5": (
        "471101168438909485/108086391056891904",
        "81272622975544323/9007199254740992",
        "81272622975544323/9007199254740992",
    ),
    "graphic-star/reduction-graphic/exhaustive-min/0": (
        "5820418689016344791/4323455642275676160",
        "65307737367682531/18014398509481984",
        "65307737367682531/18014398509481984",
    ),
    "graphic-star/reduction-graphic/exhaustive-min/1": (
        "1398523527040378321/1080863910568919040",
        "62808903761184111/18014398509481984",
        "62808903761184111/18014398509481984",
    ),
    "graphic-star/reduction-graphic/fixed/0": (
        "2912379471033320309/2161727821137838080",
        "65307737367682531/18014398509481984",
        "65307737367682531/18014398509481984",
    ),
    "graphic-star/reduction-graphic/fixed/1": (
        "234407618441743991/180143985094819840",
        "62808903761184111/18014398509481984",
        "62808903761184111/18014398509481984",
    ),
    "graphic-star/reduction-graphic/increasing/0": (
        "5820418689016344791/4323455642275676160",
        "65307737367682531/18014398509481984",
        "65307737367682531/18014398509481984",
    ),
    "graphic-star/reduction-graphic/increasing/1": (
        "1398523527040378321/1080863910568919040",
        "62808903761184111/18014398509481984",
        "62808903761184111/18014398509481984",
    ),
    "laminar-n9/laminar/exhaustive-min/5": (
        "9639405675577151/4503599627370496",
        "18902635961256689/4503599627370496",
        "18902635961256689/4503599627370496",
    ),
    "laminar-n9/laminar/fixed/5": (
        "2771154123199573/1125899906842624",
        "18902635961256689/4503599627370496",
        "18902635961256689/4503599627370496",
    ),
    "laminar-n9/laminar/increasing/5": (
        "9639405675577151/4503599627370496",
        "18902635961256689/4503599627370496",
        "18902635961256689/4503599627370496",
    ),
    "laminar-n9/reduction-custom/exhaustive-min/5": (
        "16394805116632895/4503599627370496",
        "18902635961256689/4503599627370496",
        "18902635961256689/4503599627370496",
    ),
    "laminar-n9/reduction-custom/fixed/5": (
        "4460003983463509/1125899906842624",
        "18902635961256689/4503599627370496",
        "18902635961256689/4503599627370496",
    ),
    "laminar-n9/reduction-custom/increasing/5": (
        "16394805116632895/4503599627370496",
        "18902635961256689/4503599627370496",
        "18902635961256689/4503599627370496",
    ),
    "matching-n8/matching/exhaustive-min/5": (
        "85555988486094749/36028797018963968",
        "94066984445686459/18014398509481984",
        "176286213044075085/36028797018963968",
    ),
    "matching-n8/matching/fixed/5": (
        "23135449367536873/9007199254740992",
        "94066984445686459/18014398509481984",
        "176286213044075085/36028797018963968",
    ),
    "matching-n8/matching/increasing/5": (
        "43788689378391499/18014398509481984",
        "94066984445686459/18014398509481984",
        "176286213044075085/36028797018963968",
    ),
    "rank1-exponential/laminar/exhaustive-min/0": (
        "6820423628945911/2251799813685248",
        "312245084386965/70368744177664",
        "312245084386965/70368744177664",
    ),
    "rank1-exponential/laminar/exhaustive-min/1": (
        "48969347662748639/72057594037927936",
        "2932340461765695/2251799813685248",
        "2932340461765695/2251799813685248",
    ),
    "rank1-exponential/laminar/fixed/0": (
        "6820423628945911/2251799813685248",
        "312245084386965/70368744177664",
        "312245084386965/70368744177664",
    ),
    "rank1-exponential/laminar/fixed/1": (
        "6469029303815501/9007199254740992",
        "2932340461765695/2251799813685248",
        "2932340461765695/2251799813685248",
    ),
    "rank1-exponential/laminar/increasing/0": (
        "6820423628945911/2251799813685248",
        "312245084386965/70368744177664",
        "312245084386965/70368744177664",
    ),
    "rank1-exponential/laminar/increasing/1": (
        "48969347662748639/72057594037927936",
        "2932340461765695/2251799813685248",
        "2932340461765695/2251799813685248",
    ),
    "rank1-exponential/rank1/exhaustive-min/0": (
        "6820423628945911/2251799813685248",
        "312245084386965/70368744177664",
        "312245084386965/70368744177664",
    ),
    "rank1-exponential/rank1/exhaustive-min/1": (
        "48969347662748639/72057594037927936",
        "2932340461765695/2251799813685248",
        "2932340461765695/2251799813685248",
    ),
    "rank1-exponential/rank1/fixed/0": (
        "6820423628945911/2251799813685248",
        "312245084386965/70368744177664",
        "312245084386965/70368744177664",
    ),
    "rank1-exponential/rank1/fixed/1": (
        "6469029303815501/9007199254740992",
        "2932340461765695/2251799813685248",
        "2932340461765695/2251799813685248",
    ),
    "rank1-exponential/rank1/increasing/0": (
        "6820423628945911/2251799813685248",
        "312245084386965/70368744177664",
        "312245084386965/70368744177664",
    ),
    "rank1-exponential/rank1/increasing/1": (
        "48969347662748639/72057594037927936",
        "2932340461765695/2251799813685248",
        "2932340461765695/2251799813685248",
    ),
    "rank1-n9/laminar/exhaustive-min/5": (
        "3/1",
        "6/1",
        "6/1",
    ),
    "rank1-n9/laminar/fixed/5": (
        "3/1",
        "6/1",
        "6/1",
    ),
    "rank1-n9/laminar/increasing/5": (
        "3/1",
        "6/1",
        "6/1",
    ),
    "rank1-n9/rank1/exhaustive-min/5": (
        "3/1",
        "6/1",
        "6/1",
    ),
    "rank1-n9/rank1/fixed/5": (
        "3/1",
        "6/1",
        "6/1",
    ),
    "rank1-n9/rank1/increasing/5": (
        "3/1",
        "6/1",
        "6/1",
    ),
    "simple-n9/reduction-custom/exhaustive-min/5": (
        "9/1",
        "35/2",
        "35/2",
    ),
    "simple-n9/reduction-custom/fixed/5": (
        "9/1",
        "35/2",
        "35/2",
    ),
    "simple-n9/reduction-custom/increasing/5": (
        "9/1",
        "35/2",
        "35/2",
    ),
    "transversal-n10/transversal/exhaustive-min/5": (
        "26224139539191635/4503599627370496",
        "47597252409462155/4503599627370496",
        "47597252409462155/4503599627370496",
    ),
    "transversal-n10/transversal/fixed/5": (
        "26224139539191635/4503599627370496",
        "47597252409462155/4503599627370496",
        "47597252409462155/4503599627370496",
    ),
    "transversal-n10/transversal/increasing/5": (
        "26224139539191635/4503599627370496",
        "47597252409462155/4503599627370496",
        "47597252409462155/4503599627370496",
    ),
    "transversal-small/transversal/exhaustive-min/0": (
        "95153732365409781/18014398509481984",
        "37162235779082869/4503599627370496",
        "35458300628571185/4503599627370496",
    ),
    "transversal-small/transversal/exhaustive-min/1": (
        "522361299050652699/288230376151711744",
        "915013751681641625/288230376151711744",
        "7172957057879893123/2305843009213693952",
    ),
    "transversal-small/transversal/fixed/0": (
        "95153732365409781/18014398509481984",
        "37162235779082869/4503599627370496",
        "35458300628571185/4503599627370496",
    ),
    "transversal-small/transversal/fixed/1": (
        "572872822608910109/288230376151711744",
        "915013751681641625/288230376151711744",
        "7172957057879893123/2305843009213693952",
    ),
    "transversal-small/transversal/increasing/0": (
        "95153732365409781/18014398509481984",
        "37162235779082869/4503599627370496",
        "35458300628571185/4503599627370496",
    ),
    "transversal-small/transversal/increasing/1": (
        "522361299050652699/288230376151711744",
        "915013751681641625/288230376151711744",
        "7172957057879893123/2305843009213693952",
    ),
    "triangle-matching/matching/exhaustive-min/0": (
        "2569178548567681/1125899906842624",
        "303645672809459/70368744177664",
        "303645672809459/70368744177664",
    ),
    "triangle-matching/matching/exhaustive-min/1": (
        "100324405045375/35184372088832",
        "9878321440324357/2251799813685248",
        "9878321440324357/2251799813685248",
    ),
    "triangle-matching/matching/fixed/0": (
        "2569178548567681/1125899906842624",
        "303645672809459/70368744177664",
        "303645672809459/70368744177664",
    ),
    "triangle-matching/matching/fixed/1": (
        "100324405045375/35184372088832",
        "9878321440324357/2251799813685248",
        "9878321440324357/2251799813685248",
    ),
    "triangle-matching/matching/increasing/0": (
        "2569178548567681/1125899906842624",
        "303645672809459/70368744177664",
        "303645672809459/70368744177664",
    ),
    "triangle-matching/matching/increasing/1": (
        "100324405045375/35184372088832",
        "9878321440324357/2251799813685248",
        "9878321440324357/2251799813685248",
    ),
    "two-layer/laminar/exhaustive-min/0": (
        "69100777152280723/18014398509481984",
        "62580491048776061/9007199254740992",
        "62580491048776061/9007199254740992",
    ),
    "two-layer/laminar/exhaustive-min/1": (
        "141708312480872967/36028797018963968",
        "14814570222127475/2251799813685248",
        "14814570222127475/2251799813685248",
    ),
    "two-layer/laminar/fixed/0": (
        "70070401471633281/18014398509481984",
        "62580491048776061/9007199254740992",
        "62580491048776061/9007199254740992",
    ),
    "two-layer/laminar/fixed/1": (
        "73364174157763761/18014398509481984",
        "14814570222127475/2251799813685248",
        "14814570222127475/2251799813685248",
    ),
    "two-layer/laminar/increasing/0": (
        "69100777152280723/18014398509481984",
        "62580491048776061/9007199254740992",
        "62580491048776061/9007199254740992",
    ),
    "two-layer/laminar/increasing/1": (
        "141708312480872967/36028797018963968",
        "14814570222127475/2251799813685248",
        "14814570222127475/2251799813685248",
    ),
}


def test_every_case_is_pinned():
    assert sorted(PINS) == sorted(cases())


@pytest.mark.parametrize("case_id", sorted(PINS))
def test_exact_fractions_pinned(case_id):
    assert exact_strings(cases()[case_id]) == PINS[case_id]
