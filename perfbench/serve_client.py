"""Open-loop client for `nahsp serve` over a Unix socket: the serve-layer
probe of the traced pass.

One process, at most `connections` client connections. The caller's
thread writes each request when it is due, round-robin over the
connections (the protocol pipelines: responses carry the request id),
and one reader thread per connection timestamps every response. Latency
is measured from the request's due time, so a stalled daemon or a late
generator shows up in the numbers instead of slowing the offered load.
A control connection pings and polls `stats` every 20 ms meanwhile.
"""

import json
import os
import select
import socket
import subprocess
import threading
import time

QUEUE_LIMIT = 4096  # admission bound, far above any backlog the schedules build
DRAIN_S = 60.0      # how long responses may trail the last due time


class Daemon:
    """A `nahsp serve` process on a Unix socket under `workdir`."""

    def __init__(self, nahsp, workdir, workers):
        # Relative to the working directory: a Unix socket path is
        # limited to about 100 bytes, a checkout path is not.
        self.sock_path = os.path.join(os.path.relpath(workdir), f"serve-{os.getpid()}.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.proc = subprocess.Popen(
            [nahsp, "serve", "--socket", self.sock_path,
             "--workers", str(workers), "--queue", str(QUEUE_LIMIT)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        deadline = time.monotonic() + 30
        line = ""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                break
            if self.proc.poll() is not None:
                break
        if "listening" not in line:
            self.kill()
            raise RuntimeError(f"nahsp serve did not start: {line!r}")

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock_path)
        return s

    def shutdown(self):
        try:
            with self.connect() as s:
                s.sendall(b'{"cmd":"shutdown"}\n')
                s.recv(4096)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()


class Control:
    """A synchronous request/response connection for ping and stats."""

    def __init__(self, daemon):
        self.sock = daemon.connect()
        self.reader = self.sock.makefile("rb")

    def call(self, obj):
        t0 = time.perf_counter()
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise RuntimeError("control connection closed")
        return json.loads(line), time.perf_counter() - t0

    def close(self):
        self.reader.close()
        self.sock.close()


def warm_up(daemon):
    """Ping, then one small solve, on a fresh connection."""
    ctl = Control(daemon)
    try:
        ctl.call({"cmd": "ping"})
        resp, _ = ctl.call({"cmd": "solve", "id": "warm", "spec": "abelian seed=1"})
        if not resp.get("ok"):
            raise RuntimeError(f"warm-up solve failed: {resp}")
    finally:
        ctl.close()


def run_schedule(daemon, schedule, connections):
    """Sends `schedule` [(due_offset_s, class, spec)] open loop.

    Returns per-request records and the control-plane samples (ping
    round trips, queue depths) taken while the schedule ran.
    """
    n = len(schedule)
    sent = [None] * n
    recv = [None] * n
    resp = [None] * n
    socks = [daemon.connect() for _ in range(connections)]
    lock = threading.Lock()
    counts = {"answered": 0, "closed": 0}
    finished = threading.Event()  # every request answered or every connection closed

    def reader(sock):
        f = sock.makefile("rb")
        for line in f:
            t = time.perf_counter()
            obj = json.loads(line)
            i = obj.get("id")
            if isinstance(i, int) and 0 <= i < n and recv[i] is None:
                recv[i], resp[i] = t, obj
                with lock:
                    counts["answered"] += 1
                    if counts["answered"] == n:
                        finished.set()
        f.close()
        with lock:
            counts["closed"] += 1
            if counts["closed"] == len(socks):
                finished.set()

    pings, depths = [], []
    stop_poll = threading.Event()

    def poller():
        ctl = Control(daemon)
        try:
            while not stop_poll.wait(0.02):
                _, rtt = ctl.call({"cmd": "ping"})
                pings.append(rtt)
                st, _ = ctl.call({"cmd": "stats"})
                depths.append(st["stats"]["queue_depth"])
        finally:
            ctl.close()

    readers = [threading.Thread(target=reader, args=(s,), daemon=True) for s in socks]
    poll_thread = threading.Thread(target=poller, daemon=True)
    for t in readers + [poll_thread]:
        t.start()

    start = time.perf_counter() + 0.05
    for i, (due, _, spec) in enumerate(schedule):
        delay = start + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        msg = json.dumps({"cmd": "solve", "id": i, "spec": spec}) + "\n"
        sent[i] = time.perf_counter()
        socks[i % connections].sendall(msg.encode())

    finished.wait(DRAIN_S)
    stop_poll.set()
    poll_thread.join()
    for s in socks:
        s.shutdown(socket.SHUT_RDWR)
    for t in readers:
        t.join(timeout=5)
    for s in socks:
        s.close()
    records = [{"due": start + due, "sent": sent[i], "recv": recv[i],
                "resp": resp[i], "class": cls}
               for i, (due, cls, _) in enumerate(schedule)]
    return records, pings, depths
