"""The benchmark's workloads: CLI command lines, seeded inputs, pinned results.

Each workload is a list of `ainfty` command lines that one fresh interpreter
runs in order, as a user would type them one after another.  Inputs that
depend on the seed are generated into a work directory outside the source
tree.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Optional

# The CLI's own default seed; the pinned report digests are taken at this seed.
DEFAULT_SEED = 20240601
CORPUS = os.path.join("src", "ainfty", "corpus")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Sum of every `checked = N` line of the reports; it does not depend on
    # the seed, so a speed-up can never come from checking fewer words.
    checked: int
    # sha256 of the concatenated report text at DEFAULT_SEED.
    digest: str
    # True when the report text is the same for every seed, so the digest is
    # pinned for every seed.  On potential-g1 the seed shapes the candidates,
    # but each of them has potential 0 and zero wall-crossing terms at E=3.
    seed_free: bool

    def pinned_digest(self, seed: int) -> Optional[str]:
        return self.digest if self.seed_free or seed == DEFAULT_SEED else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cocycle-g1",
            "cocycle on corpus G1 at L=4: the bimodule-hom check (phi_hat, "
            "delta, delta') and eval_word dominate, nearly all evaluations are "
            "zero; no chain operators or potentials",
            28801,
            "1797769397a38c5152dd7c00c8609a2cc36ce5ff6b21c30aac71d49427421f19",
            True,
        ),
        Workload(
            "check-g1",
            "check on corpus G1 at K=8 with 200 seeded chains: m_word-cached "
            "relations plus b, B, b', t, N on multi-term chains where ring mul "
            "dominates; pairing and potentials idle",
            88590,
            "35a4f099e4428257913df29037dc00a72f9b9344e4161b02312eae88f817508d",
            False,
        ),
        Workload(
            "potential-g1",
            "gauge on G1, then potential and wallcross on G1 wall-crossing plus "
            "two seeded candidates: Poly scalars and repeated b^p expansion in "
            "apply_m and eval_elements",
            10,
            "8072f8cb5ddcc870edb6ef049fe504dae3ad78f3134fc8571e9f9820c5d3e1e3",
            True,
        ),
    )
}


def _seeded_wallcross_document(seed: int, path: str) -> None:
    """g1_wallcross.json plus two candidates on x and y drawn from the seed.

    Coefficients come from {2, 3} at energy 1/2, so the amount of work does
    not depend on the seed: mixed signs would cancel terms, and so does a
    coefficient of 1 on x, which removes about 7% of the ring products per
    such candidate.
    """
    with open(os.path.join(CORPUS, "g1_wallcross.json")) as handle:
        raw = json.load(handle)
    rng = random.Random(seed)
    for name in ("s0", "s1"):
        raw["candidates"].append({
            "name": name,
            "element": [
                {"basis": basis, "coeff": str(rng.choice((2, 3))), "T": "1/2"}
                for basis in ("x", "y")
            ],
        })
    with open(path, "w") as handle:
        json.dump(raw, handle, indent=1)


def commands(name: str, seed: int, workdir: str) -> list:
    """The command lines of one run of workload `name`; writes its inputs."""
    g1 = os.path.join(CORPUS, "g1_gauge.json")
    if name == "cocycle-g1":
        return [["cocycle", "--input", g1]]
    if name == "check-g1":
        return [["check", "--input", g1, "--kmax", "8", "--seed", str(seed)]]
    if name == "potential-g1":
        os.makedirs(workdir, exist_ok=True)
        doc = os.path.join(workdir, "g1_wallcross_seed%d.json" % seed)
        _seeded_wallcross_document(seed, doc)
        cutoffs = ["--nmax", "7", "--kmax", "8"]
        return [
            ["gauge", "--input", g1],
            ["potential", "--input", doc] + cutoffs,
            ["wallcross", "--input", doc] + cutoffs,
        ]
    raise KeyError(name)
