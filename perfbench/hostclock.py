"""Host speed, read from a fixed reference piece of work timed between ops.

The shared virtual machine this benchmark was written on changes speed as a
whole: for tens of seconds at a time every vCPU runs up to 1.8 times slower,
and a run of 28 s may never see the fast state, so no statistic over the
repeats within one run can undo it. Over such swings a replayed trace, a
pure Python loop and Ed25519 verifies kept their time ratios within about
5 %. So the benchmark times one fixed piece of work, mixing those kinds of
work, about every 50 ms between ops, and scales each op's wall time to the
speed at which that piece takes exactly `REF_S`.

The piece uses only the standard library and `cryptography`, never the
program, so a change to the program moves the scaled times and not the
reference.
"""

from __future__ import annotations

import json
import statistics
import time
from bisect import bisect_left, bisect_right

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

REF_S = 1e-3  # nominal duration of one reference piece
INTERVAL_S = 0.05  # at most one piece per interval, taken between ops
WINDOW_S = 0.25  # an op's speed is the median piece within this distance of it
WARMUP = 5

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_PUB = _KEY.public_key()
_RECORD = {"case": "reference", "seq": 7, "roles": ["a", "b", "c", "d", "e"],
           "state": [0, 1, 1, 0, 2, 0, 1], "payload": "ab" * 40}


def reference_piece() -> None:
    """A fixed mix of interpreted Python, JSON and Ed25519 work."""
    table: dict[int, int] = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + i
    for _ in range(8):
        json.loads(json.dumps(_RECORD, sort_keys=True))
    message = json.dumps(_RECORD, sort_keys=True).encode()
    signature = _KEY.sign(message)
    for _ in range(2):
        _PUB.verify(signature, message)


class HostClock:
    """Reference-piece timings over a run, and the scale they give each interval."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each piece, perf_counter seconds
        self.durations: list[float] = []
        self._last = float("-inf")
        for _ in range(WARMUP):
            reference_piece()

    def sample(self) -> None:
        started = time.perf_counter()
        reference_piece()
        ended = time.perf_counter()
        self.times.append((started + ended) / 2)
        self.durations.append(ended - started)
        self._last = ended

    def maybe_sample(self) -> None:
        """Time a piece if none has been timed for `INTERVAL_S`."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median piece within WINDOW_S of [start, end].

        A wall time in that interval times the scale is the time it would
        take where one piece takes REF_S.
        """
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise RuntimeError(f"no reference piece within {WINDOW_S} s of [{start}, {end}]")
        return REF_S / statistics.median(self.durations[lo:hi])

    def speed(self) -> float:
        """Median REF_S / piece time over the run: 1 is nominal speed."""
        return REF_S / statistics.median(self.durations)
