"""Output checks: the reference responses and the paper's invariants.

The reference for every distinct request body is `torusplace batch` run on
the bodies at set-up.  A served response is correct when it equals the
reference byte for byte after the echoed id.  The TCP client in native.cpp
applies the same rule to every measured response; `response_ok` is its
Python twin, used for warm-up traffic and by the tests.
"""

import json


class CheckError(Exception):
    pass


def id_prefix(rid):
    return '{"id":%s,' % json.dumps(rid, separators=(",", ":"))


def split_id(line, rid):
    """The response text after the echoed id, or None if the id is not
    `rid` or the line is not a response object."""
    prefix = id_prefix(rid)
    if not line.startswith(prefix):
        return None
    return line[len(prefix):]


def odr_t1_forms(k, d):
    """ODR on the all-ones linear placement of T_k^d, d >= 3: the paper's
    Sec. 6.1 count, which is the maximum over interior-dimension links, and
    the overall maximum floor(k/2) k^(d-2) (EXPERIMENTS.md, E7)."""
    if k % 2 == 0:
        interior = k ** (d - 1) / 8 + k ** (d - 2) / 4
    else:
        interior = k ** (d - 1) / 8 - k ** (d - 3) / 8
    return interior, (k // 2) * k ** (d - 2)


def known_defect(resp):
    """True when the response shows the planner's known defect and nothing
    else: for ODR, t=1, d>=3 it sends the interior-link form as
    `predicted_emax` with `prediction_exact: true`, while `measured_emax`
    is the overall maximum.  Both values must be exactly the two closed
    forms; any other mismatch is a failure."""
    if (resp.get("router") != "odr" or resp.get("t") != 1
            or resp.get("d", 0) < 3 or not resp.get("prediction_exact")):
        return False
    interior, overall = odr_t1_forms(resp["k"], resp["d"])
    return (resp["predicted_emax"] == interior
            and resp.get("measured_emax") == overall)


def paper_problems(resp):
    """Paper invariants on one load/analyze response (Def. 4 exact load):
    measured E_max equals the closed form when the prediction is exact, and
    is never below the best lower bound.  A response with the known defect
    is checked against the overall form instead (see known_defect)."""
    if resp.get("op") not in ("load", "analyze"):
        return []
    problems = []
    measured = resp.get("measured_emax")
    if measured is None:
        return ["%s: no measured_emax" % resp.get("key")]
    if (resp.get("prediction_exact") and measured != resp["predicted_emax"]
            and not known_defect(resp)):
        problems.append("%s: measured_emax %r != predicted_emax %r"
                        % (resp.get("key"), measured, resp["predicted_emax"]))
    if measured < resp["lower_bound"]:
        problems.append("%s: measured_emax %r < lower_bound %r"
                        % (resp.get("key"), measured, resp["lower_bound"]))
    return problems


def reference_tails(bodies, batch_lines):
    """Checks `torusplace batch` output for request ids 1..n (one per body).
    Returns (each response's text after the id, paper-invariant problems,
    keys that show the known defect).  Raises CheckError on a missing, misnumbered or failed response."""
    if len(batch_lines) != len(bodies):
        raise CheckError("reference: %d responses for %d requests"
                         % (len(batch_lines), len(bodies)))
    tails, problems, defects = [], [], []
    for i, line in enumerate(batch_lines):
        tail = split_id(line, i + 1)
        if tail is None:
            raise CheckError("reference: response %d has the wrong id" % (i + 1))
        resp = json.loads(line)
        if not resp.get("ok"):
            raise CheckError("reference: request %d failed: %s"
                             % (i + 1, resp.get("error")))
        problems += paper_problems(resp)
        if known_defect(resp):
            defects.append(resp["key"])
        tails.append(tail)
    return tails, problems, defects


def response_ok(line, rid, tail):
    """True when `line` is the reference response `tail` under id `rid`."""
    return line is not None and split_id(line, rid) == tail
