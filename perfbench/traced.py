"""The traced run: per-layer numbers from in-process calls.

`paracount.cli.main(argv)` runs in this process on the workload's
instances, once untraced and once with `spans.Tracer` installed; layer
metrics are self times and span counts, and both sides' outputs are
checked against the reference.
"""
from __future__ import annotations

import io
import json
import random
import statistics
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import paracount.cli as cli
from paracount import selftest as stm

import spans
from bench import (OUT_DIR, STARTUP_SPAWNS, check, ensure_reference, launcher, outcome_of,
                   setup)
from workloads import WORKLOADS, Instance


def layer_units() -> dict[str, str]:
    out = {}
    for layer in spans.layer_names():
        out[f"{layer}_ms"], out[f"{layer}_calls"] = "ms", "count"
    out.update({"cli.refusal_ok_ratio": "ratio", "pdet.clow_sequences": "count",
                "pdet.clow_useful_ratio": "ratio", "trace.overhead_ratio": "ratio"})
    return out


def in_process(inst: Instance, tracer: spans.Tracer | None) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.instance = inst.id
    with redirect_stdout(out), redirect_stderr(err):
        try:
            with tracer.span("cli.self") if tracer else nullcontext():
                code = cli.main(inst.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what an uncaught error would print in a process
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def traced_run(workload: str, seed: int) -> dict:
    """Per-layer numbers from the workload's own instances.  The small-batch
    run also calls every selftest property at smoke scale, so that the
    selftest and oracle layers are measured on one gated workload."""
    ref_path = ensure_reference(workload, seed, WORKLOADS[workload](seed))
    instances, reference = setup(workload, seed, ref_path)
    with launcher() as spawn:
        startup = [spawn(Instance("cli/--help", ["--help"])).latency_s * 1000
                   for _ in range(STARTUP_SPAWNS)]

    def probe(i, tracer):
        name, prop = stm.PROPERTIES[i]  # the wrapped entry while tracing
        return "failed" if prop(random.Random(f"{seed}:{name}"), stm.SMOKE) else "passed"

    items = [(inst.id, lambda tr, inst=inst: in_process(inst, tr)) for inst in instances]
    if workload == "small-batch":
        items += [(f"probe/selftest-{name}", lambda tr, i=i: probe(i, tr))
                  for i, (name, _) in enumerate(stm.PROPERTIES)]
    tracer = spans.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    raw = {False: {}, True: {}}  # what each item returned, untraced and traced
    for n, (item_id, run) in enumerate(items):
        # Each item runs untraced and traced; alternating which goes first
        # keeps warm-up from favouring either side of the overhead ratio.
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                tracer.instance = item_id
            began = time.perf_counter()
            try:
                raw[traced][item_id] = run(tracer if traced else None)
            finally:
                elapsed[traced] += time.perf_counter() - began
                if traced:
                    tracer.uninstall()

    # Outputs are checked only now, with the tracer gone and the clock stopped.
    outcomes = {traced: {inst.id: outcome_of(inst, *raw[traced][inst.id]) for inst in instances}
                for traced in (False, True)}
    failures, counts = check([(inst, outcomes[False][inst.id]) for inst in instances], reference)
    traced_failures, _ = check([(inst, outcomes[True][inst.id]) for inst in instances], reference)
    failures += [(inst_id, reason + " (traced)") for inst_id, reason in traced_failures]
    failures += [(item_id, "property failed at smoke scale" + (" (traced)" if traced else ""))
                 for traced in (False, True) for item_id, outcome in raw[traced].items()
                 if outcome == "failed"]

    times = tracer.self_times()
    metrics = {}
    for layer in spans.layer_names():
        ms, calls = times.get(layer, (0.0, 0))
        if layer == "cli.startup":
            ms, calls = statistics.median(startup), len(startup)
        metrics[f"{layer}_ms"] = ms
        metrics[f"{layer}_calls"] = calls
    malformed = [inst for inst in instances if inst.expect_error]
    refused = sum(outcomes[True][i.id] == "error:" + i.expect_error for i in malformed)
    sequences = tracer.counters["pdet.clow_sequences"]
    # Both ratios are vacuous on a workload without malformed instances or clows.
    metrics["cli.refusal_ok_ratio"] = refused / len(malformed) if malformed else 1.0
    metrics["pdet.clow_sequences"] = sequences
    metrics["pdet.clow_useful_ratio"] = (
        tracer.counters["pdet.clow_abs_value"] / sequences if sequences else 0.0
    )
    metrics["trace.overhead_ratio"] = elapsed[True] / elapsed[False]

    own_times = tracer.self_times({inst.id for inst in instances})
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as handle:
        for name, start, end, parent, instance in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": instance}) + "\n")
    return {
        "attempted": 2 * len(items),
        "failed": len(failures),
        "metrics": metrics,
        "failures": failures,
        "counts_digest": counts,
        "top_self_ms": sorted(((ms, name) for name, (ms, _) in own_times.items()), reverse=True)[:8],
    }
