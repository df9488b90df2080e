"""``enumerate``: the Fig-10 protocol in-process, as ``repro kvcc`` runs it.

The seven Table-1 stand-ins, relabeled by the seed, are written as edge
lists and loaded through the resolver as mmap CSR.  Each timed call is
``enumerate_kvccs_csr(base, k, materialize=False)`` with the default
serial engine and kernel, at the middle and the largest of the stand-in's
``scaled_k_values``.  Pairs are visited round-robin, pass after pass, so
a slow phase of the host hits every pair alike.  The operation of
``op_ms`` is one pass: the sum over pairs of each pair's best (lowest)
call time.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Tuple

import arith
import envinfo
from inputs import Relabeled, canonical_edges

SETUP_REPEATS = 9


def _pairs_of(graph) -> List[int]:
    from repro.datasets.registry import scaled_k_values

    ks = scaled_k_values(graph)
    return sorted({ks[len(ks) // 2], ks[-1]})


def _setup(ctx, repeat: int):
    """Generate, relabel, write and resolve every stand-in."""
    from repro.data import resolve_dataset
    from repro.datasets.registry import DATASETS

    inputs = []
    for name, spec in DATASETS.items():
        structure = spec.build()
        relabeled = Relabeled(structure, ctx.seed, f"enumerate:{name}")
        path = ctx.work / f"{name}.txt"
        relabeled.write(path)
        base = resolve_dataset(str(path)).load(
            cache_dir=ctx.work / f"cache{repeat}", mmap=True
        )
        for k in _pairs_of(structure):
            inputs.append((name, k, structure, relabeled, base))
    return inputs


def _answer(base, relabeled, kvccs) -> frozenset:
    """k-VCCs as sets of *structure* vertices (undoing the relabeling)."""
    back = relabeled.backward
    return frozenset(
        frozenset(back[base.label_of(i)] for i in members)
        for members in kvccs
    )


def _canonical(ctx, inputs) -> Dict[Tuple[str, int], dict]:
    """The seed-free answer and counters per pair, verified once.

    Each (structure, k) is enumerated on its canonical labeling and the
    answer checked with ``verify_kvccs``; the verified result is kept
    under ``.bench_work/verified`` keyed by a digest of ``src/``, so a
    checkout verifies once and later runs only compare.
    """
    from repro.core.kvcc import enumerate_kvccs_csr
    from repro.core.stats import RunStats
    from repro.core.verify import verify_kvccs
    from repro.graph.csr import CSRGraph

    store = ctx.persist / "verified" / envinfo.source_digest(ctx.root)
    path = store / "enumerate.json"
    if path.exists():
        cached = json.loads(path.read_text())
    else:
        cached = {}
    out = {}
    for name, k, structure, _, _ in inputs:
        key = f"{name}:{k}"
        if key not in cached:
            base, _ = CSRGraph.from_edges(canonical_edges(structure))
            stats = RunStats(k=k)
            kvccs = enumerate_kvccs_csr(base, k, stats=stats,
                                        materialize=False)
            sets = [sorted(base.label_of(i) for i in c) for c in kvccs]
            report = verify_kvccs(structure, sets, k)
            if not ctx.check(report.ok, f"verify_kvccs {key}: {report}"):
                continue
            cached[key] = {"kvccs": sorted(sets),
                           "counters": stats.counters()}
        entry = cached[key]
        out[(name, k)] = {
            "answer": frozenset(frozenset(c) for c in entry["kvccs"]),
            "counters": entry["counters"],
        }
    store.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(cached, sort_keys=True))
    os.replace(tmp, path)
    return out


def _counts(counters: List[dict]) -> Dict[str, float]:
    """The paper's Table-2 quantities over one pass (exact counts)."""
    total = {key: sum(c[key] for c in counters) for key in counters[0]}
    pruned = sum(v for key, v in total.items()
                 if key.startswith("phase1_pruned."))
    return {
        "flow.tests": total["flow_tests"],
        "core.global_cut.calls": total["global_cut_calls"],
        "core.sweep.pruned_frac":
            pruned / max(1, pruned + total["phase1_tested"]),
        "certificate.kept_frac": total["certificate_edges_kept"]
            / max(1, total["certificate_edges_input"]),
        "core.kvccs": total["kvccs_found"],
    }


def run(ctx) -> None:
    from repro.core.kvcc import enumerate_kvccs_csr
    from repro.core.stats import RunStats
    import layers
    from tracing import Tracer

    setups: List[float] = []

    def set_up():
        ctx.calibration.tick()
        started = time.perf_counter()
        made = _setup(ctx, len(setups))
        setups.append(time.perf_counter() - started)
        return made

    inputs = set_up()
    pairs = [(name, k) for name, k, _, _, _ in inputs]
    times: Dict[tuple, Dict[bool, List[float]]] = {
        p: {False: [], True: []} for p in pairs
    }
    first: Dict[tuple, tuple] = {}
    pass_counters: List[dict] = []
    tracer = Tracer()
    traced_passes = 0
    deadline = time.perf_counter() + ctx.seconds
    passes = 0
    while time.perf_counter() < deadline:
        ctx.calibration.tick()
        # The traced run alternates untraced and traced passes, so the
        # tracing overhead is measured under the same host conditions.
        traced = ctx.trace and passes % 2 == 1
        if traced:
            layers.install_offline(tracer)
            traced_passes += 1
        try:
            counters = []
            for name, k, _, relabeled, base in inputs:
                stats = RunStats(k=k)
                started = time.perf_counter()
                kvccs = enumerate_kvccs_csr(base, k, stats=stats,
                                            materialize=False)
                times[(name, k)][traced].append(
                    time.perf_counter() - started)
                result = (_answer(base, relabeled, kvccs), stats.counters())
                counters.append(result[1])
                if (name, k) not in first:
                    first[(name, k)] = result
                else:
                    ctx.check(result == first[(name, k)],
                              f"{name} k={k}: answer changed between calls")
        finally:
            tracer.uninstall()
        pass_counters.append(_counts(counters))
        passes += 1
        # The other set-ups are spread through the run, one after each
        # pass, so their median sees the host as the passes do; the
        # deadline moves by their time, which is not enumeration time.
        if len(setups) < SETUP_REPEATS:
            started = time.perf_counter()
            set_up()
            deadline += time.perf_counter() - started
    while len(setups) < SETUP_REPEATS:
        set_up()
    rss = envinfo.peak_rss_mb()

    canonical = _canonical(ctx, inputs)
    for pair in pairs:
        if pair not in canonical:
            continue
        answer, counters = first[pair]
        ctx.check(answer == canonical[pair]["answer"],
                  f"{pair}: k-VCCs differ from the verified answer")
        ctx.check(counters == canonical[pair]["counters"],
                  f"{pair}: RunStats counters differ from the seed-free run")

    counts = pass_counters[0]
    ctx.report.update({
        "passes": passes,
        "pairs": [f"{name}:k={k}" for name, k in pairs],
        "samples_per_pair": min(len(t[False]) for t in times.values()),
        "setup_samples_s": setups,
        "counts": counts,
    })
    # Best of the passes per pair: see arith.best_window for why a best
    # value repeats on this host where a median does not.
    untraced = sum(min(t[False]) for t in times.values())
    if not ctx.trace:
        ctx.metric("setup_s", arith.median(setups))
        ctx.metric("peak_rss_mb", rss)
        ctx.metric("op_ms", untraced * 1e3)
        return

    traced = sum(min(t[True]) for t in times.values())
    layers.per_op_metrics(ctx, tracer.totals(), max(1, traced_passes),
                          traced / untraced - 1)
    written = tracer.write_chrome(ctx.trace_path("enumerate"),
                                  "kvccbench enumerate")
    ctx.report["trace_file"] = str(ctx.trace_path("enumerate"))
    ctx.report["trace_spans"] = written
