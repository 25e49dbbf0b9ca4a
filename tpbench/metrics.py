"""The metric table lives in BENCHMARK.json; this module reads it and
builds the one-line result the harness prints last."""

import json
import math
import os

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


def load_spec(path=SPEC_PATH):
    with open(path) as f:
        return json.load(f)


def metric_table(spec, trace):
    """(name, unit) of every metric a run prints: end_to_end untraced,
    per_layer traced."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in group]


def result_line(spec, trace, attempted, failed, values):
    """The final JSON object.  Every metric of the run's group must have a
    finite measured value; a missing one is a harness bug, not a zero."""
    metrics = {}
    for name, unit in metric_table(spec, trace):
        if name not in values:
            raise KeyError("metric %s was not measured" % name)
        value = values[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, value))
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
