#!/usr/bin/env python3
"""Smoke-drive a running change-gate server (rcdc_validate --serve or
dcv_gate) over its public HTTP surface:

  1. Concurrency: N parallel POST /precheck of the same plan must all
     answer 200 with identical bodies (the serving layer must not change
     answers); a bad plan answers 400; POST /nsg-check answers 200 with a
     decision line.
  2. Admission control: a storm of concurrent prechecks against a server
     started with a deliberately small worker pool must surface at least
     one 429 with a Retry-After header, and /readyz must flip to 503 with
     the queue-saturation detail while the storm runs — then recover to
     200 once it drains.
  3. Exposition: /metrics contains the per-request HTTP series, the gate
     counters and the precheck phase histograms (written to --metrics-out
     for the exposition linter); /gatez reports the contracts rechecked.

Exits non-zero (with a FAIL line) on any violated expectation.
"""

import argparse
import http.client
import sys
import threading
import time

GOOD_PLAN = "change renumber ToR\nset-asn %s 64900\n"
BAD_PLAN = "change ghost\nset-asn NoSuchDevice 1\n"
NSG_TABLE = (
    "priority,name,source,src_ports,destination,dst_ports,protocol,access\n"
    "4096,DenyAllInBound,Any,Any,Any,Any,Any,Deny\n"
)


def request(port, method, target, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, target, body=body)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def fail(message):
    print(f"gate_smoke: FAIL {message}")
    sys.exit(1)


def pick_device(port):
    """Grabs a device name to renumber from the /gatez-served topology via
    a probe plan: try a handful of generator/figure names."""
    for name in ("T0-0-0", "ToR1", "tor-0"):
        status, _, body = request(port, "POST", "/precheck",
                                  GOOD_PLAN % name)
        if status == 200:
            return name, body
    fail("no probe device produced a 200 precheck")


def phase_concurrency(port, clients):
    name, expected = pick_device(port)
    results = [None] * clients
    def one(i):
        results[i] = request(port, "POST", "/precheck", GOOD_PLAN % name)
    threads = [threading.Thread(target=one, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for status, _, body in results:
        if status != 200:
            fail(f"concurrent precheck answered {status}")
        if body != expected:
            fail("concurrent precheck bodies diverge")
    if not expected.startswith(b"decision: "):
        fail(f"unexpected precheck body: {expected[:80]!r}")

    status, _, body = request(port, "POST", "/precheck", BAD_PLAN)
    if status != 400:
        fail(f"bad plan answered {status}, want 400")
    status, _, body = request(
        port, "POST", "/nsg-check?vnet=smoke&space=10.1.0.0/16&db=1",
        NSG_TABLE)
    if status != 200 or not body.startswith(b"decision: "):
        fail(f"nsg-check answered {status}: {body[:80]!r}")
    print(f"gate_smoke: concurrency ok ({clients} identical 200s, "
          "400 on bad plan, nsg-check serves)")
    return name


def phase_overload(port, device, storm_clients, duration):
    """Open-ended storm until both overload signals are observed."""
    saw_429 = threading.Event()
    retry_after_ok = threading.Event()
    saw_503 = threading.Event()
    stop = threading.Event()
    # Volume, not weight, saturates the small worker pool's queue.
    plan = GOOD_PLAN % device

    def stormer():
        while not stop.is_set():
            try:
                status, headers, _ = request(port, "POST", "/precheck", plan,
                                             timeout=30)
                if status == 429:
                    saw_429.set()
                    if headers.get("Retry-After"):
                        retry_after_ok.set()
            except OSError:
                pass

    def readyz_poller():
        while not stop.is_set():
            try:
                status, _, body = request(port, "GET", "/readyz", timeout=30)
                if status == 503 and b"saturation" in body:
                    saw_503.set()
            except OSError:
                pass
            time.sleep(0.02)

    threads = [threading.Thread(target=stormer)
               for _ in range(storm_clients)]
    threads.append(threading.Thread(target=readyz_poller))
    for t in threads:
        t.start()
    deadline = time.time() + duration
    while time.time() < deadline:
        if saw_429.is_set() and retry_after_ok.is_set() and saw_503.is_set():
            break
        time.sleep(0.05)
    stop.set()
    for t in threads:
        t.join()
    if not saw_429.is_set():
        fail("storm never produced a 429")
    if not retry_after_ok.is_set():
        fail("429 responses carried no Retry-After header")
    if not saw_503.is_set():
        fail("/readyz never flipped to 503 with the saturation detail")

    # Recovery: once the storm drains, readiness must come back.
    for _ in range(100):
        status, _, _ = request(port, "GET", "/readyz")
        if status == 200:
            print("gate_smoke: overload ok (429 + Retry-After, /readyz "
                  "503 under storm, 200 after)")
            return
        time.sleep(0.2)
    fail("/readyz did not recover after the storm")


def phase_metrics(port, metrics_out, expect_429):
    status, _, body = request(port, "GET", "/metrics")
    if status != 200:
        fail(f"/metrics answered {status}")
    text = body.decode()
    for series in ("dcv_http_requests_total", "dcv_http_request_ns",
                   "dcv_http_open_connections", "dcv_http_queued_requests",
                   "dcv_gate_prechecks_total", "dcv_gate_nsg_checks_total",
                   "dcv_gate_precheck_batches_total",
                   'dcv_precheck_phase_ns_count{phase="reconverge"}',
                   'dcv_precheck_phase_ns_count{phase="rollback"}',
                   "dcv_precheck_contracts_rechecked_total"):
        if series not in text:
            fail(f"/metrics is missing {series}")
    if expect_429 and 'code="429"' not in text:
        fail("no 429 sample reached dcv_http_requests_total")
    status, _, body = request(port, "GET", "/gatez")
    if status != 200 or b"prechecks served" not in body:
        fail(f"/gatez answered {status}: {body[:80]!r}")
    if b"contracts rechecked" not in body:
        fail("/gatez is missing the contracts rechecked line")
    if metrics_out:
        with open(metrics_out, "w") as out:
            out.write(text)
    print("gate_smoke: metrics ok (http + gate series present, "
          f"exposition saved to {metrics_out or 'nowhere'})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent prechecks in the correctness phase")
    parser.add_argument("--storm-clients", type=int, default=24,
                        help="closed-loop stormers in the overload phase")
    parser.add_argument("--storm-seconds", type=float, default=60.0,
                        help="overload phase bound")
    parser.add_argument("--skip-overload", action="store_true",
                        help="for servers with full-size worker pools")
    parser.add_argument("--metrics-out", default="")
    args = parser.parse_args()

    # Wait for the server (and its first cycle, when pipeline-backed).
    for _ in range(200):
        try:
            status, _, _ = request(args.port, "GET", "/readyz", timeout=5)
            if status == 200:
                break
        except OSError:
            pass
        time.sleep(0.5)
    else:
        fail("/readyz never answered 200")

    device = phase_concurrency(args.port, args.clients)
    if not args.skip_overload:
        phase_overload(args.port, device, args.storm_clients,
                       args.storm_seconds)
    phase_metrics(args.port, args.metrics_out,
                  expect_429=not args.skip_overload)
    print("gate_smoke: ok")


if __name__ == "__main__":
    main()
