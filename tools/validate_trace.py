#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by the obs:: tracer.

Checks, beyond plain JSON validity:
  - the document is an object with a "traceEvents" list
  - every event carries name/ph/pid/tid, with ph one of B E X i C M
  - timed events (B/E/X/i) carry a numeric "ts"; X additionally "dur" >= 0
  - per (pid, tid) stream, B/E events stay balanced: depth never goes
    negative and ends at zero (the exporter must have skipped orphan ends)
  - instant events carry the scope field "s"
  - counter args, when present, are an object of numbers
  - process_name/thread_name metadata labels are non-empty and drawn from
    the exporter's charset; pooled core-group tracks ("accel/cg:0",
    "accel.r1/cg:3", ...) are valid track labels

With --report, the arguments that follow are validated as obs::Report
documents instead: a JSON object with a "bench" string and a "config"
object; a "phases" array, when present, must hold per-phase summary rows
(name/count/total_us/max_us/self_us with the right types). Benches
listed in REQUIRED_ROOT_FIELDS must additionally carry those root-level
numeric fields — the counters downstream dashboards key on.

Exit status is nonzero on the first violation, so CI can gate on it.

Usage: validate_trace.py [--report] <file.json> [<file.json> ...]
       validate_trace.py <trace.json> ... --report <report.json> ...
"""

import json
import sys

import re

ALLOWED_PH = {"B", "E", "X", "i", "C", "M"}
TIMED_PH = {"B", "E", "X", "i"}

# Track labels the obs:: exporter emits: span names plus the structured
# per-core-group forms "cg", "cg:<i>" and "<prefix>/cg:<i>" (the core
# group is the finest traced unit; no per-CPE track exists). The colon is
# load-bearing — sw::CgPool labels pooled groups "cg:0".."cg:3" under one
# prefix.
TRACK_LABEL = re.compile(r"^[A-Za-z0-9_.:/\- ]+$")


def fail(path, msg):
    print(f"{path}: FAIL: {msg}", file=sys.stderr)
    return 1


def validate(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return fail(path, 'top level must be an object with "traceEvents"')
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail(path, '"traceEvents" must be a list')

    depths = {}  # (pid, tid) -> open-span depth
    n_timed = 0
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            return fail(path, f"{where}: event is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                return fail(path, f"{where}: missing {key!r}")
        ph = e["ph"]
        if ph not in ALLOWED_PH:
            return fail(path, f"{where}: unknown phase {ph!r}")
        if not isinstance(e["pid"], int) or not isinstance(e["tid"], int):
            return fail(path, f"{where}: pid/tid must be integers")
        if ph in TIMED_PH:
            n_timed += 1
            if not isinstance(e.get("ts"), (int, float)):
                return fail(path, f"{where}: {ph} event needs a numeric ts")
        if ph == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                return fail(path, f"{where}: X event needs dur >= 0")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            return fail(path, f"{where}: instant event needs scope s")
        if "args" in e:
            if not isinstance(e["args"], dict):
                return fail(path, f"{where}: args must be an object")
            if ph == "M" and e["name"] in ("process_name", "thread_name"):
                label = e["args"].get("name")
                if not isinstance(label, str) or not TRACK_LABEL.match(label):
                    return fail(
                        path, f"{where}: bad track label {label!r}")
            if ph != "M":
                for k, v in e["args"].items():
                    if not isinstance(v, (int, float)):
                        return fail(
                            path, f"{where}: counter arg {k!r} not numeric")
        key = (e["pid"], e["tid"])
        if ph == "B":
            depths[key] = depths.get(key, 0) + 1
        elif ph == "E":
            d = depths.get(key, 0) - 1
            if d < 0:
                return fail(path, f"{where}: unbalanced E on track {key}")
            depths[key] = d

    open_tracks = {k: d for k, d in depths.items() if d != 0}
    if open_tracks:
        return fail(path, f"spans left open at end of trace: {open_tracks}")

    print(f"{path}: OK ({len(events)} events, {n_timed} timed, "
          f"{len(depths)} span streams)")
    return 0


# Root-level numeric fields a bench's report must carry, keyed by the
# report's "bench" string. Keep in sync with each bench's write_json.
REQUIRED_ROOT_FIELDS = {
    "ensemble_throughput": (
        "resident_bytes_per_member",
        "checkpoint_bytes_per_step",
        "cow_shared_fraction",
    ),
    "service_soak": (
        "drain_restart_cycles",
        "retries",
        "digest_mismatches",
        "leaked_members",
        "snapshot_count",
    ),
    "multicg": (
        "digest_mismatches",
        "placement_digest_mismatches",
        "max_core_groups",
        "speedup_max_cgs",
        "contention_slowdown_max",
    ),
    "fig9_katrina": (
        "fine_track_error_km",
        "coarse_track_error_km",
        "fine_deepest_ps",
        "coarse_deepest_ps",
        "fine_intensity_retention",
        "fine_state_crc",
        "coarse_state_crc",
    ),
}

# Schema of one entry in a report's "snapshots" array — the periodic
# metrics samples a soak bench captures from svc::Server. "label" is the
# only string; everything else is a counter a dashboard can plot.
SNAPSHOT_FIELDS = {
    "label": str,
    "members_total": int,
    "done": int,
    "active": int,
    "backoff": int,
    "parked": int,
    "retries": int,
    "restarts": int,
    "engine_submitted": int,
    "engine_completed": int,
    "engine_faulted": int,
    "engine_cancelled": int,
    "engine_resumed": int,
    "queue_depth": int,
}

PHASE_FIELDS = {
    "name": str,
    "count": int,
    "total_us": (int, float),
    "max_us": (int, float),
    "self_us": (int, float),
}


def validate_report(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, 'report needs a non-empty "bench" string')
    if not isinstance(doc.get("config"), dict):
        return fail(path, 'report needs a "config" object')

    phases = doc.get("phases", [])
    if not isinstance(phases, list):
        return fail(path, '"phases" must be a list when present')
    for i, p in enumerate(phases):
        where = f"phases[{i}]"
        if not isinstance(p, dict):
            return fail(path, f"{where}: phase row is not an object")
        for key, ty in PHASE_FIELDS.items():
            if key not in p:
                return fail(path, f"{where}: missing {key!r}")
            if not isinstance(p[key], ty) or isinstance(p[key], bool):
                return fail(path, f"{where}: {key!r} has the wrong type")
        if p["count"] < 0 or p["total_us"] < 0:
            return fail(path, f"{where}: negative count/total_us")

    snapshots = doc.get("snapshots", [])
    if not isinstance(snapshots, list):
        return fail(path, '"snapshots" must be a list when present')
    for i, s in enumerate(snapshots):
        where = f"snapshots[{i}]"
        if not isinstance(s, dict):
            return fail(path, f"{where}: snapshot is not an object")
        for key, ty in SNAPSHOT_FIELDS.items():
            if key not in s:
                return fail(path, f"{where}: missing {key!r}")
            if ty is int:
                if not isinstance(s[key], int) or isinstance(s[key], bool):
                    return fail(path, f"{where}: {key!r} must be an integer")
            elif not isinstance(s[key], ty):
                return fail(path, f"{where}: {key!r} must be {ty.__name__}")
    if "snapshot_count" in doc and doc["snapshot_count"] != len(snapshots):
        return fail(
            path,
            f'"snapshot_count" {doc["snapshot_count"]} != '
            f"{len(snapshots)} snapshots")

    for key in REQUIRED_ROOT_FIELDS.get(doc["bench"], ()):
        if key not in doc:
            return fail(path, f"report for {doc['bench']!r} missing {key!r}")
        if not isinstance(doc[key], (int, float)) or isinstance(
                doc[key], bool):
            return fail(path, f"root field {key!r} must be numeric")

    print(f"{path}: OK (report {doc['bench']!r}, {len(phases)} phases)")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rc = 0
    as_report = False
    for arg in argv[1:]:
        if arg == "--report":
            as_report = True
            continue
        rc |= validate_report(arg) if as_report else validate(arg)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
