"""Rebuild the frozen input corpus of the benchmark (``corpus.json``).

The corpus is committed so that later edits to ``repro.workloads`` or
``repro.datagen`` cannot change what the benchmark measures.  It holds

* the 41 bundled kernels of ``repro.workloads`` (Polybench, linear
  algebra, modern applications, accelerator mappings) with their default
  runtime inputs and input sweeps;
* programs drawn from ``repro.datagen.dataflowgen`` with a fixed seed,
  each kept only if it passes ingestion validation and profiles on its
  base inputs and on every input variant;
* the hardware variants the request streams draw from.

Run from the repository root::

    python3 perfbench/build_corpus.py            # rewrite corpus.json
    python3 perfbench/build_corpus.py --stats    # print its make-up only
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from perfbench.corpus import CORPUS_PATH, data_variants  # noqa: E402

GENERATOR_SEED = 2025
GENERATED_COUNT = 200
# Generated top-level scalars are loop bounds over 8x8 buffers; their
# variants stay inside the buffers so no access is clamped.
GENERATED_SCALAR_VALUES = (4, 6, 8)
HARDWARE = (
    {"mem_read_delay": 10, "mem_write_delay": 10, "pe_count": 4, "memory_ports": 2},
    {"mem_read_delay": 2, "mem_write_delay": 2, "pe_count": 4, "memory_ports": 2},
    {"mem_read_delay": 5, "mem_write_delay": 5, "pe_count": 8, "memory_ports": 2},
    {"mem_read_delay": 10, "mem_write_delay": 10, "pe_count": 2, "memory_ports": 1},
)


def _kernels() -> list[dict]:
    from repro.workloads import (
        accelerator_suite,
        linalg_suite,
        modern_suite,
        polybench_suite,
    )

    entries = []
    for workload in polybench_suite() + linalg_suite() + modern_suite() + accelerator_suite():
        entries.append(
            {
                "name": workload.name,
                "kind": "kernel",
                "source": workload.source,
                "data": dict(workload.merged_data()),
                "sweeps": {
                    name: list(values)
                    for name, values in sorted(workload.dynamic_sweeps.items())
                },
            }
        )
    return entries


def _profiles_cleanly(entry: dict) -> bool:
    from repro.errors import ReproError
    from repro.profiler import Profiler

    profiler = Profiler()
    try:
        for data in data_variants(entry):
            profiler.profile(entry["source"], data=data or None)
    except ReproError:
        return False
    return True


def _generated(count: int) -> list[dict]:
    from repro.analysis.cache import AnalysisCache
    from repro.datagen.dataflowgen import DataflowGenConfig, DataflowGraphGenerator
    from repro.lang import to_source

    generator = DataflowGraphGenerator(DataflowGenConfig(), seed=GENERATOR_SEED)
    analysis = AnalysisCache()
    entries: list[dict] = []
    for draw in itertools.count():
        if len(entries) >= count:
            break
        if draw > 4 * count:
            raise SystemExit("too many generated programs failed validation")
        program, _ = generator.generate_program()
        source = to_source(program)
        top = program.function(program.function_names[-1])
        scalars = [param.name for param in top.params if not param.type.is_array]
        entry = {
            "name": f"gen-{draw:03d}",
            "kind": "generated",
            "source": source,
            "data": {name: GENERATED_SCALAR_VALUES[-1] for name in scalars},
            "sweeps": {name: list(GENERATED_SCALAR_VALUES) for name in scalars},
        }
        if analysis.validate(source).ok and _profiles_cleanly(entry):
            entries.append(entry)
    return entries


def build() -> dict:
    return {
        "version": 1,
        "rebuild": "python3 perfbench/build_corpus.py",
        "generator": {
            "module": "repro.datagen.dataflowgen",
            "seed": GENERATOR_SEED,
            "count": GENERATED_COUNT,
            "scalar_values": list(GENERATED_SCALAR_VALUES),
        },
        "hardware": [dict(params) for params in HARDWARE],
        "programs": _kernels() + _generated(GENERATED_COUNT),
    }


def stats(corpus: dict) -> dict:
    """The corpus make-up the README quotes: program and token lengths
    and the share of programs whose bundle reaches the token cap."""
    from repro.core import LLMulatorConfig, bundle_from_program
    from repro.tokenizer import ProgressiveTokenizer

    cap = LLMulatorConfig().max_seq_len
    tokenizer = ProgressiveTokenizer(max_length=10**9)
    summary = {}
    for kind in ("kernel", "generated"):
        entries = [e for e in corpus["programs"] if e["kind"] == kind]
        chars = sorted(len(e["source"]) for e in entries)
        tokens = sorted(
            len(tokenizer.encode_bundle(bundle_from_program(e["source"], data=e["data"] or None)).ids)
            for e in entries
        )
        summary[kind] = {
            "programs": len(entries),
            "source_chars_median": chars[len(chars) // 2],
            "source_chars_range": [chars[0], chars[-1]],
            "tokens_median": tokens[len(tokens) // 2],
            "tokens_range": [tokens[0], tokens[-1]],
            "share_at_token_cap": round(sum(t >= cap for t in tokens) / len(tokens), 3),
            "data_variants": sum(len(data_variants(e)) for e in entries),
        }
    summary["token_cap"] = cap
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", action="store_true", help="print the make-up of corpus.json")
    args = parser.parse_args(argv)
    if args.stats:
        with open(CORPUS_PATH) as handle:
            print(json.dumps(stats(json.load(handle)), indent=2))
        return 0
    corpus = build()
    with open(CORPUS_PATH, "w") as handle:
        json.dump(corpus, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus['programs'])} programs to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
