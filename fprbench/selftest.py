"""Quick self-test of the fpr benchmark (run.py --self-test).

Runs every workload of BENCHMARK.json at reduced size (--small) on one seed:
twice untraced and once traced. It asserts that

  * every run is correct and exits 0;
  * every end-to-end and per-layer metric BENCHMARK.json names is emitted,
    with the unit BENCHMARK.json gives, and no other metric is;
  * the quality metrics, the route digest and the heap-pop count are
    identical across the two untraced runs of the same seed;
  * the per-layer metrics read 0 where a layer does not run.
"""

import json
import math
import os
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
QUALITY = ("min_width_sum", "wirelength_hops", "max_path_hops", "routed_share")

# Layers that must do no work on a workload: (workload, metric-name prefixes).
PREDICTED_ZEROS = {
    "paper-widths": ("negotiate.", "partition."),
    "negotiated-route": ("router.congestion_reliefs", "router.move_to_front_reorders"),
    "eco-repair": ("search.", "partition."),
    "large-device": ("search.", "partition.", "negotiate."),
}


def deadline():
    return time.monotonic() + 600


def summary_of(lines):
    for line in lines:
        if line.startswith("summary "):
            return json.loads(line[len("summary "):])
    return {}


def check_metrics(result, expected, what, errors):
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(units) != set(expected):
        errors.append("%s: metrics %s, expected %s" % (what, sorted(units), sorted(expected)))
    for name, unit in expected.items():
        if name in units and units[name] != unit:
            errors.append("%s: %s has unit %r, expected %r" % (what, name, units[name], unit))
        value = result["metrics"].get(name, {}).get("value")
        if name in units and not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append("%s: %s is not a finite number" % (what, name))


def main(build, run_binary, result_of):
    binary = build()
    if binary is None:
        return 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        errors_before = len(errors)
        base = [binary, "--workload", workload, "--seed", str(SEED), "--small", "--seconds", "0"]
        fingerprints = []
        for attempt in range(2):
            what = "%s run %d" % (workload, attempt + 1)
            code, lines = run_binary(base[0], base[1:] + ["--trace", "0"], deadline())
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                errors.append("%s: exit %s, result %s" % (what, code, result))
                continue
            check_metrics(result, end_to_end, what, errors)
            summary = summary_of(lines)
            fingerprints.append((tuple(result["metrics"][q]["value"] for q in QUALITY),
                                 summary.get("route_digest"), summary.get("heap_pops")))
        if len(fingerprints) == 2 and fingerprints[0] != fingerprints[1]:
            errors.append("%s: runs of seed %d differ: %s" % (workload, SEED, fingerprints))

        what = "%s traced" % workload
        code, lines = run_binary(base[0], base[1:] + ["--trace", "1"], deadline())
        result = result_of(lines)
        if code != 0 or result is None or not result["correct"]:
            errors.append("%s: exit %s, result %s" % (what, code, result))
            continue
        check_metrics(result, per_layer, what, errors)
        for name, metric in result["metrics"].items():
            if name.startswith(PREDICTED_ZEROS[workload]) and metric["value"] != 0:
                errors.append("%s: %s = %r, predicted 0" % (what, name, metric["value"]))
        print("%s: %s" % (workload, "ok" if len(errors) == errors_before else "FAILED"),
              flush=True)

    for error in errors:
        print("FAIL " + error, flush=True)
    print("self-test %s" % ("FAILED" if errors else "passed"), flush=True)
    return 1 if errors else 0
