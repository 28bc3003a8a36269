"""Seeded job streams for the four benchmark workloads.

A workload is a fixed list of slots. One cycle of the stream draws one
job per slot (its --n, a --seed, and the output format when the slot
leaves it open) and shuffles the cycle's order. A slot's --n values are
drawn without replacement: each pass deals a seeded permutation of the
slot's choices, one per cycle, so a run of two cycles holds both sizes of
a two-size slot. Every run of the same length therefore holds the same
mix of job kinds, and of sizes wherever a slot has no more choices than
the run has cycles, whatever the seed; the seed changes the order, which
cycle gets which size, the formats and the per-job seeds.

Each workload states its nominal cycle time, measured on a 2-core x86-64
virtual machine: a run of S seconds is ceil(S / cycle_s) whole cycles,
so the number and mix of jobs in a run never depend on how fast the code
is.
Job sizes are bounded so that a cycle takes seconds, not minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Slot:
    """One job kind: the subcommand and fixed options, the --n choices,
    and the output format ('' lets the seed choose)."""
    args: tuple[str, ...]
    ns: tuple[int, ...]
    fmt: str = ""


@dataclass(frozen=True)
class Workload:
    why: str
    cycle_s: float
    slots: tuple[Slot, ...]


def _verify(suite: str, n: int) -> Slot:
    return Slot(("verify", "--suite", suite), (n,))


def _finite(n: int, q: int, k: int = 1, fmt: str = "") -> Slot:
    return Slot(("finite-model", "--q", str(q), "--k", str(k)), (n,), fmt)


WORKLOADS = {
    "closed-form": Workload(
        "dim jobs: coxeter enumeration plus cli JSON/CSV serialization, "
        "no Q(v), cyclotomic or linalg work", 11.5,
        (Slot(("dim", "--mode", "subset"), (3, 4)),
         Slot(("dim", "--mode", "subset"), tuple(range(5, 13))),
         Slot(("dim", "--mode", "subset"), (13, 14), "csv"),
         Slot(("dim", "--mode", "subset"), (15, 16), "json"),
         Slot(("dim", "--mode", "subset"), (17, 18), "csv"),
         Slot(("dim", "--mode", "subset"), (19, 20), "json"),
         Slot(("dim", "--mode", "aggregation"), (21, 22), "json"),
         Slot(("dim", "--mode", "aggregation"), (26, 30), "csv"),
         Slot(("dim", "--mode", "aggregation"), (31, 32), "json"),
         Slot(("dim", "--mode", "aggregation"), (35, 36), "csv"),
         # the largest job sets peak RSS, so its size is fixed
         Slot(("dim", "--mode", "aggregation"), (40,), "csv"))),
    "exact-qv": Workload(
        "short Q(v) jobs: scalars rational functions and linalg "
        "Echelon/TaggedEchelon through hecke, btalg and monodromic", 9.5,
        (_verify("presentation", 1), _verify("presentation", 2),
         _verify("presentation", 3),
         _verify("hecke", 1), _verify("hecke", 2), _verify("hecke", 3),
         _verify("kl-lift", 1), _verify("kl-lift", 2),
         _verify("monodromic", 1), _verify("monodromic", 1),
         _verify("monodromic", 2), _verify("monodromic", 2),
         Slot(("kl-lift",), (2,)),
         Slot(("dim-rank", "--mode", "exact"), (2,)),
         Slot(("dim-rank", "--mode", "exact"), (3,)))),
    "finite-field": Workload(
        "finite-model jobs on SL_2(F_q), q = 2, 3, 4, 5, F_4 as 2^2, and "
        "SL_3(F_2): Cyclotomic arithmetic and operator products", 22.0,
        # one large field per cycle; many small ones, so that the run's
        # figures do not rest on a single long job
        (_finite(1, 5),) + (_finite(1, 3),) * 5 + (_finite(1, 4),) * 5
        + (_finite(2, 2),) * 5 + (_finite(1, 2, 2),) * 3
        + (_finite(1, 2),) * 4),
    "modp-rank": Workload(
        "dim-rank in specialized mode: the seeded mod-p rank certificate "
        "on linalg.ModPEchelon, against the published ranks", 8.5,
        tuple([Slot(("dim-rank", "--mode", "specialized"), (3,))] * 10
              + [Slot(("dim-rank", "--mode", "specialized"), (2,))] * 5
              + [Slot(("dim-rank", "--mode", "specialized"), (1,))] * 2)),
}


def cycles(workload: str, seed: int):
    """Endless stream of cycles (lists of argv lists) for a workload."""
    slots = WORKLOADS[workload].slots
    rng = random.Random(f"{workload}:{seed}")
    dealt: list[list[int]] = [[] for _ in slots]
    while True:
        batch = []
        for slot, ns in zip(slots, dealt):
            if not ns:
                ns.extend(rng.sample(slot.ns, len(slot.ns)))
            fmt = slot.fmt or rng.choice(("json", "csv"))
            batch.append([slot.args[0], "--n", str(ns.pop()),
                          *slot.args[1:], "--seed", str(rng.randrange(10**6)),
                          "--format", fmt, "--out", f"out.{fmt}"])
        rng.shuffle(batch)
        yield batch
