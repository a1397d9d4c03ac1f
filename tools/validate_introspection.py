#!/usr/bin/env python3
"""Validates the live introspection endpoints of an in-flight run.

Usage: validate_introspection.py <port-file>

Runs against a bench launched with OTIF_METRICS_PORT=0 and
OTIF_METRICS_PORT_FILE=<port-file>; waits for the port file, then checks
against 127.0.0.1:<port>:

  - /metrics  is legal Prometheus 0.0.4 text exposition: every line is a
              `# TYPE` comment or a sample, names match the exposition
              grammar, histogram buckets are cumulative and agree with
              their `_count`.
  - /statusz  is JSON with the documented sections (phase, run, pool)
              and per-clip `committed` counters that advance
              monotonically within one run generation (`run.seq`).
  - /healthz  answers throughout, and flips to 503 "stalled" during the
              induced post-run pause (the bench's OTIF_BENCH_STALL_SEC run,
              labeled "induced_stall", paired with a sub-second
              OTIF_STALL_SEC watchdog window).
  - /tracez   is JSON with `timeline_armed` true and a `spans` list
              (OTIF_METRICS_PORT arms timeline collection).

Exits non-zero with a diagnostic on the first violation.
"""

import http.client
import json
import re
import sys
import time


def die(message):
    print("ERROR:", message, file=sys.stderr)
    sys.exit(1)


def fetch(port, path, attempts=5, timeout=10):
    """GET with retry/backoff: the single-threaded serving loop can be
    briefly unreachable between accept()s (or blocked inside a /profilez
    window), so transient connection errors back off and retry instead of
    failing the whole validation."""
    delay = 0.05
    for attempt in range(attempts):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return (resp.status, resp.getheader("Content-Type", ""),
                    resp.read().decode())
        except (ConnectionError, TimeoutError, OSError) as error:
            if attempt == attempts - 1:
                die(f"GET {path} failed after {attempts} attempts: {error}")
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
        finally:
            conn.close()


def wait_for_port(path, deadline_seconds=60.0):
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        try:
            with open(path) as f:
                text = f.read().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.02)
    die(f"port file {path} not written within {deadline_seconds}s")


NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
SAMPLE_RE = re.compile(
    rf"^(?P<name>{NAME_RE})(?:\{{(?P<labels>[^}}]*)\}})? (?P<value>\S+)$")
TYPE_RE = re.compile(
    rf"^# TYPE (?P<name>{NAME_RE}) (?P<kind>counter|gauge|histogram|summary)$")


def validate_metrics(status, content_type, body):
    if status != 200:
        die(f"/metrics returned {status}")
    if "version=0.0.4" not in content_type:
        die(f"/metrics content type {content_type!r} lacks version=0.0.4")
    kinds = {}
    buckets = {}  # base name -> list of (le, cumulative count)
    counts = {}   # base name -> _count value
    samples = 0
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = TYPE_RE.match(line)
            if not m:
                die(f"/metrics bad comment line: {line!r}")
            if m.group("name") in kinds:
                die(f"/metrics duplicate TYPE for {m.group('name')}")
            kinds[m.group("name")] = m.group("kind")
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            die(f"/metrics bad sample line: {line!r}")
        samples += 1
        value = float(m.group("value"))  # Raises on garbage.
        name = m.group("name")
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            labels = m.group("labels") or ""
            lm = re.fullmatch(r'le="([^"]+)"', labels)
            if not lm:
                die(f"/metrics bucket without le label: {line!r}")
            buckets.setdefault(base, []).append((lm.group(1), value))
        elif name.endswith("_count"):
            counts[name[: -len("_count")]] = value
    if samples == 0:
        return 0, ["<any samples>"]  # Nothing registered yet: keep polling.
    for base, series in buckets.items():
        if kinds.get(base) != "histogram":
            die(f"/metrics buckets for non-histogram {base}")
        if series[-1][0] != "+Inf":
            die(f"/metrics {base} buckets do not end at +Inf")
        values = [v for _, v in series]
        if values != sorted(values):
            die(f"/metrics {base} buckets not cumulative: {values}")
        if base not in counts or counts[base] != values[-1]:
            die(f"/metrics {base} +Inf bucket disagrees with _count")
    missing = [name for name in ("otif_pipeline_frames", "otif_mem_pool_hits")
               if name not in kinds]
    return len(kinds), missing


def validate_statusz_schema(doc):
    for key in ("phase", "process_uptime_seconds", "run", "pool"):
        if key not in doc:
            die(f"/statusz missing key {key!r}: {sorted(doc)}")
    run = doc["run"]
    for key in ("label", "seq", "in_flight", "frames_committed",
                "frames_total", "clips_done", "clips", "quarantined"):
        if key not in run:
            die(f"/statusz run missing key {key!r}: {sorted(run)}")
    for clip in run["clips"]:
        for key in ("clip", "committed", "total"):
            if key not in clip:
                die(f"/statusz clip entry missing {key!r}: {clip}")
    for entry in run["quarantined"]:
        for key in ("clip", "reason"):
            if key not in entry:
                die(f"/statusz quarantined entry missing {key!r}: {entry}")
    for key in ("hits", "misses", "bytes_in_flight"):
        if key not in doc["pool"]:
            die(f"/statusz pool missing {key!r}")


def statusz(port):
    status, content_type, body = fetch(port, "/statusz")
    if status != 200:
        die(f"/statusz returned {status}")
    if "application/json" not in content_type:
        die(f"/statusz content type {content_type!r}")
    doc = json.loads(body)
    validate_statusz_schema(doc)
    return doc


def check_monotonic_commits(port, deadline_seconds=120.0):
    """Two scrapes of one run generation: commits must only grow."""
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        first = statusz(port)
        if not first["run"]["in_flight"] or \
                first["run"]["label"] == "induced_stall":
            time.sleep(0.02)
            continue
        time.sleep(0.15)
        second = statusz(port)
        if second["run"]["seq"] != first["run"]["seq"]:
            continue  # Run ended between scrapes; catch the next one.
        if second["run"]["frames_committed"] < first["run"]["frames_committed"]:
            die("/statusz run frames_committed went backwards")
        before = {c["clip"]: c["committed"] for c in first["run"]["clips"]}
        for clip in second["run"]["clips"]:
            if clip["committed"] < before.get(clip["clip"], 0):
                die(f"/statusz clip {clip['clip']} committed went backwards")
        return first["run"]["seq"]
    die("never observed one run generation across two /statusz scrapes")


def await_stall(port, deadline_seconds=180.0):
    """The induced_stall run must trip the /healthz watchdog (503)."""
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        doc = statusz(port)
        if doc["run"]["label"] == "induced_stall" and doc["run"]["in_flight"]:
            status, _, body = fetch(port, "/healthz")
            if status == 503 and "stalled" in body:
                return
        time.sleep(0.02)
    die("/healthz never reported stalled during the induced pause")


def main():
    if len(sys.argv) != 2:
        die(f"usage: {sys.argv[0]} <port-file>")
    port = wait_for_port(sys.argv[1])

    # Every scrape must be well-formed from the first poll; the expected
    # series only appear once the bench registers them, so poll for those.
    end = time.monotonic() + 60.0
    while True:
        series, missing = validate_metrics(*fetch(port, "/metrics"))
        if not missing:
            break
        if time.monotonic() > end:
            die(f"/metrics never exported expected series {missing}")
        time.sleep(0.05)

    status, _, body = fetch(port, "/healthz")
    if status not in (200, 503):
        die(f"/healthz returned {status}")
    json.loads(body)

    status, content_type, body = fetch(port, "/tracez")
    if status != 200 or "application/json" not in content_type:
        die(f"/tracez returned {status} ({content_type})")
    tracez = json.loads(body)
    if tracez.get("timeline_armed") is not True:
        die("/tracez reports timeline_armed false under OTIF_METRICS_PORT")
    if not isinstance(tracez.get("spans"), list):
        die("/tracez has no spans list")

    seq = check_monotonic_commits(port)
    await_stall(port)
    print(f"live introspection ok: {series} metric series, monotonic "
          f"commits in run seq {seq}, watchdog flipped to stalled")


if __name__ == "__main__":
    main()
