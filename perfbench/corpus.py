"""The frozen corpus and the seeded draws every workload makes from it.

Nothing here imports ``repro``: the draws depend only on
``corpus.json`` and the seed, so a later change to the program under
test cannot change what is measured.  Each draw keeps the make-up of
the work the same from seed to seed (the same programs, or one program
per length stratum) and lets the seed choose order, hardware variant,
runtime data and random array contents.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")

# Salts keep the workloads' random streams apart under one --seed.
_SALT = {"serve_cold": 1, "serve_repeat": 2, "profile_sweep": 3, "dse_campaign": 4}

SERVE_COLD_REQUESTS = 100
# serve_repeat: each kernel under this many hardware variants, up to
# this many runtime-data variants per (kernel, hardware) pair, and this
# many requests per distinct (kernel, hardware, data) item.
REPEAT_HARDWARE_PER_KERNEL = 2
REPEAT_DATA_PER_PAIR = 2
REPEAT_REQUESTS_PER_ITEM = 4
REPEAT_CLIENTS = 2
DSE_KERNELS = ("2mm", "3mm", "gemver")
DSE_HARDWARE = 2
PROFILE_HARDWARE_PER_KERNEL = 2


@dataclass(frozen=True)
class Request:
    """One drawn operation input: a corpus program under one hardware
    variant and one runtime-data assignment."""

    program: str  # corpus program name
    hardware: int  # index into corpus["hardware"]
    data: tuple[tuple[str, int], ...]
    seed: int = 0  # random array contents (profiling only)

    @property
    def pair(self) -> tuple[str, int]:
        return (self.program, self.hardware)

    def data_dict(self) -> Optional[dict[str, int]]:
        return dict(self.data) or None


def load(path: str = CORPUS_PATH) -> dict:
    with open(path) as handle:
        corpus = json.load(handle)
    corpus["by_name"] = {entry["name"]: entry for entry in corpus["programs"]}
    return corpus


def data_variants(entry: dict) -> list[dict]:
    """Every runtime-input variant of a corpus program: its base data
    with each swept scalar moved through its sweep values (zipped, so a
    program has as many variants as its longest sweep)."""
    base = dict(entry["data"])
    sweeps = entry["sweeps"]
    if not sweeps:
        return [base]
    width = max(len(values) for values in sweeps.values())
    variants = []
    for index in range(width):
        variant = dict(base)
        for name, values in sweeps.items():
            variant[name] = values[index % len(values)]
        variants.append(variant)
    return variants


def freeze(data: dict) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(data.items()))


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_SALT[workload], seed])


def kernels(corpus: dict) -> list[dict]:
    return [entry for entry in corpus["programs"] if entry["kind"] == "kernel"]


def serve_cold(corpus: dict, seed: int) -> list[Request]:
    """One request per program, never repeating a program.  The programs
    are fixed (the corpus sorted by source length, cut into equal
    strata, the middle program of each), so every seed measures the
    same programs; the seed draws their order, hardware and data."""
    rng = _rng("serve_cold", seed)
    ordered = sorted(corpus["programs"], key=lambda e: (len(e["source"]), e["name"]))
    strata = np.array_split(np.arange(len(ordered)), SERVE_COLD_REQUESTS)
    requests = []
    for stratum in strata:
        entry = ordered[int(stratum[len(stratum) // 2])]
        variants = data_variants(entry)
        requests.append(
            Request(
                program=entry["name"],
                hardware=int(rng.integers(len(corpus["hardware"]))),
                data=freeze(variants[int(rng.integers(len(variants)))]),
            )
        )
    rng.shuffle(requests)
    return requests


def serve_repeat(corpus: dict, seed: int) -> list[list[Request]]:
    """Per-client closed-loop request sequences over a Zipf mix.

    The distinct items are fixed by the corpus: every kernel under
    ``REPEAT_HARDWARE_PER_KERNEL`` hardware variants, each pair with up
    to ``REPEAT_DATA_PER_PAIR`` runtime-data variants.  Items get Zipf
    (1/rank) request counts over a seeded ranking, at least one each and
    ``REPEAT_REQUESTS_PER_ITEM`` on average, so the shares of unseen
    pairs, static-encoding reuse and exact repeats are the same for
    every seed.  The shuffled stream is dealt round-robin to the clients.
    """
    rng = _rng("serve_repeat", seed)
    items: list[Request] = []
    for entry in kernels(corpus):
        hardware = rng.choice(
            len(corpus["hardware"]), size=REPEAT_HARDWARE_PER_KERNEL, replace=False
        )
        variants = data_variants(entry)
        for hw in sorted(int(h) for h in hardware):
            picks = rng.choice(
                len(variants),
                size=min(REPEAT_DATA_PER_PAIR, len(variants)),
                replace=False,
            )
            for pick in picks:
                items.append(
                    Request(program=entry["name"], hardware=hw, data=freeze(variants[int(pick)]))
                )
    ranking = rng.permutation(len(items))
    total = REPEAT_REQUESTS_PER_ITEM * len(items)
    weights = 1.0 / np.arange(1, len(items) + 1)
    extra = (total - len(items)) * weights / weights.sum()
    counts = 1 + np.floor(extra).astype(int)
    # Largest remainder: hand out what flooring dropped, by rank.
    short = total - int(counts.sum())
    counts[np.argsort(-(extra - np.floor(extra)), kind="stable")[:short]] += 1
    stream = [items[index] for rank, index in enumerate(ranking) for _ in range(counts[rank])]
    order = rng.permutation(len(stream))
    stream = [stream[index] for index in order]
    return [stream[client::REPEAT_CLIENTS] for client in range(REPEAT_CLIENTS)]


def repeat_shares(stream: list[Request]) -> dict[str, float]:
    """Shares of a request stream, read in order: requests for a
    (program, hardware) pair not seen before, requests that reuse only
    the pair's data-free static encoding, and exact repeats."""
    seen_pairs: set = set()
    seen_items: set = set()
    kinds: Counter = Counter()
    for request in stream:
        item = (request.pair, request.data)
        if request.pair not in seen_pairs:
            kinds["unseen"] += 1
        elif item not in seen_items:
            kinds["static_reuse"] += 1
        else:
            kinds["exact_repeat"] += 1
        seen_pairs.add(request.pair)
        seen_items.add(item)
    return {kind: kinds[kind] / len(stream) for kind in ("unseen", "static_reuse", "exact_repeat")}


def profile_sweep(corpus: dict, seed: int) -> list[Request]:
    """Every kernel x every runtime-input variant x a seeded pair of
    hardware variants per kernel, swept kernel by kernel in corpus order
    as a corpus build does, each job with its own seed for the random
    array contents.  The order is fixed because it alone moves the
    process's peak resident set by up to 6%."""
    rng = _rng("profile_sweep", seed)
    jobs = []
    for entry in kernels(corpus):
        hardware = rng.choice(
            len(corpus["hardware"]), size=PROFILE_HARDWARE_PER_KERNEL, replace=False
        )
        jobs += [
            Request(
                program=entry["name"],
                hardware=hw,
                data=freeze(variant),
                seed=int(rng.integers(2**31)),
            )
            for hw in sorted(int(h) for h in hardware)
            for variant in data_variants(entry)
        ]
    return jobs


def dse_campaign(corpus: dict, seed: int) -> dict:
    """The campaign's fixed kernels, a seeded pair of hardware variants
    and the campaign seed that drives its search strategies."""
    rng = _rng("dse_campaign", seed)
    hardware = rng.choice(len(corpus["hardware"]), size=DSE_HARDWARE, replace=False)
    return {
        "kernels": list(DSE_KERNELS),
        "hardware": sorted(int(h) for h in hardware),
        "campaign_seed": int(rng.integers(2**31)),
    }
