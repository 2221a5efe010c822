"""Child processes of the benchmark.

    python3 perfbench/child.py setup WORKLOAD
        Cold import plus input construction of WORKLOAD, in a fresh
        process; prints the seconds it took, scaled to the reference
        speed (speed.py).
    python3 perfbench/child.py cli MODE FIXSPACE-ARGS...
        Runs ``fixspace FIXSPACE-ARGS...`` in this process. MODE is
        ``none`` (no wrappers), ``spans`` (span tracer) or ``fieldops``
        (field-operation counters). The command's records go to stdout
        as usual; the last stderr line is MARK followed by one JSON object
        of layer numbers, the import and run times of the cli, and the
        seconds each executed claim took ("claims").
"""

import importlib
import json
import os
import sys
import time

from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MARK = "perfbench-layers "
SPAN_DIR = os.path.join(ROOT, ".perfbench")


def setup(name) -> int:
    import speed
    import workloads
    wl = workloads.make(name, ROOT)
    _, _, (seconds,) = speed.timed([wl], lambda w: w.setup())
    print(seconds)
    return 0


def cli(mode, argv) -> int:
    start = time.perf_counter()
    fixspace_cli = importlib.import_module("fixspace.cli")
    imported = time.perf_counter()
    claims = {}
    run_claim = fixspace_cli._run_claim

    def timed_claim(claim, *args):
        t0 = time.perf_counter()
        status, detail = run_claim(claim, *args)
        if status != "UNVERIFIED":
            claims[claim["id"]] = time.perf_counter() - t0
        return status, detail

    fixspace_cli._run_claim = timed_claim
    tracer = Tracer()
    tracer.install(spans=mode == "spans", field_ops=mode == "fieldops")
    try:
        code = fixspace_cli.main(argv)
    finally:
        tracer.uninstall()
        fixspace_cli._run_claim = run_claim
        end = time.perf_counter()
    sys.stdout.flush()
    if mode == "spans" and "--seed" in argv:
        seed = argv[argv.index("--seed") + 1]
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(SPAN_DIR, f"spans-verify-seed{seed}.tsv"))
    layers = layer_metrics(tracer) if mode == "spans" else {}
    layers["ff.elem_ops"] = tracer.counts["ff.elem_ops"]
    layers["cli.import_s"] = imported - start
    layers["cli.claims_s"] = end - imported
    layers["claims"] = claims
    sys.stderr.write(MARK + json.dumps(layers) + "\n")
    return code


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if argv[:1] == ["setup"] and len(argv) == 2:
        return setup(argv[1])
    if argv[:1] == ["cli"] and len(argv) >= 2 and argv[1] in ("none", "spans", "fieldops"):
        return cli(argv[1], argv[2:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
