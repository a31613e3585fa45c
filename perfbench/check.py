"""Output checks: what the program returned, against what was sent.

Each check returns the key operations it found wrong as a list of
one-line descriptions; the worker counts them as failed operations and
the run exits non-zero. The checks that compare runs with each other
(equal digests, equal simulated metrics) are in ``run.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.apps.fail2ban import VERDICT_BAN, VERDICT_PASS

from workloads import LOADER, Outcome, decode_value

def _writes(outcome: Outcome) -> Dict[bytes, Dict[Tuple[str, int], tuple]]:
    """key -> (writer, seq) -> (start, finish, acked) of every put sent.

    An unacknowledged put may still have landed, so it never finishes.
    The preload is a write acknowledged before anything else started.
    """
    writes: Dict[bytes, Dict[Tuple[str, int], tuple]] = {}
    for request in outcome.requests:
        if request.kind == "put":
            finish = request.finish if request.ok else math.inf
            writes.setdefault(request.keys[0], {})[request.write] = (
                request.start, finish, request.ok)
    return writes


def _written(writes, key: bytes, value, where: str, wrong: List[str]):
    """The write *value* names, or ``None`` after recording why not."""
    if value is None:
        wrong.append(f"{where}: {key!r} is missing")
        return None
    try:
        named, writer, seq = decode_value(value)
    except ValueError:
        wrong.append(f"{where}: {key!r} holds garbage {value!r}")
        return None
    if named != key:
        wrong.append(f"{where}: {key!r} holds a value of {named!r}")
        return None
    if (writer, seq) == (LOADER, 0):
        return (-math.inf, -math.inf, True)
    write = writes.get(key, {}).get((writer, seq))
    if write is None:
        wrong.append(f"{where}: {key!r} holds {writer}#{seq}, never written")
    return write


def check_kv(outcome: Outcome) -> List[str]:
    """Reads return real, not-yet-future writes; the sweep finds a last one."""
    wrong: List[str] = []
    writes = _writes(outcome)
    for request in outcome.requests:
        if request.kind != "get" or not request.ok:
            continue
        for key, value in zip(request.keys, request.values):
            where = f"request {request.index}"
            write = _written(writes, key, value, where, wrong)
            if write is not None and write[0] > request.finish:
                wrong.append(f"{where}: {key!r} read a write from the future")
    for replica, sweep in outcome.sweeps.items():
        for key, value in sweep.items():
            where = f"sweep of {replica}"
            write = _written(writes, key, value, where, wrong)
            if write is None:
                continue
            for start, _finish, acked in writes.get(key, {}).values():
                if acked and start > write[1]:
                    wrong.append(
                        f"{where}: {key!r} lost an acknowledged later write")
                    break
    replicas = list(outcome.sweeps.values())
    for other in replicas[1:]:
        if other != replicas[0]:
            wrong.append("sweep: replicas disagree after quiescing")
    return wrong


def check_traffic(outcome: Outcome) -> List[str]:
    """The generator writes one constant; reads see it or the preload."""
    wrong: List[str] = []
    put_value = outcome.facts["put_value"]
    acked = set()
    for request in outcome.requests:
        if request.kind == "put" and request.ok:
            acked.add(request.keys[0])

    def allowed(key, value):
        if value == put_value:
            return True
        try:
            return decode_value(value) == (key, LOADER, 0)
        except (ValueError, TypeError):
            return False

    for request in outcome.requests:
        if request.kind == "get" and request.ok:
            for key, value in zip(request.keys, request.values):
                if not allowed(key, value):
                    wrong.append(f"request {request.index}: {key!r} "
                                 f"holds {value!r}")
    for key, value in outcome.sweeps["cluster"].items():
        if not allowed(key, value) or (key in acked and value != put_value):
            wrong.append(f"sweep: {key!r} holds {value!r}")
    return wrong


def check_fail2ban(outcome: Outcome) -> List[str]:
    """DPU, baseline and the rule itself agree on every packet."""
    wrong: List[str] = []
    threshold = outcome.facts["threshold"]
    baseline = outcome.facts["baseline_verdicts"]
    failures: Dict[int, int] = {}
    for index, packet in enumerate(outcome.facts["trace"]):
        if packet.src_ip not in failures:
            failures[packet.src_ip] = int(packet.auth_failed)
            expected = VERDICT_PASS
        else:
            failures[packet.src_ip] += int(packet.auth_failed)
            expected = (VERDICT_BAN if failures[packet.src_ip] > threshold
                        else VERDICT_PASS)
        dpu = outcome.requests[index].values
        if not (dpu == baseline[index] == expected):
            wrong.append(f"packet {index}: dpu={dpu} "
                         f"baseline={baseline[index]} rule={expected}")
    return wrong


CHECKS = {
    "kv-batched-read": check_kv,
    "kv-unbatched-rw": check_kv,
    "traffic-day": check_traffic,
    "georep-quorum": check_kv,
    "offload-fail2ban": check_fail2ban,
}

