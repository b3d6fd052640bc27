"""Speed meter: how fast the CPU runs right now, measured beside an op.

    python3 perfbench/meter.py <deadline_s>

The runner starts the meter on the CPU the op runs on, at niceness 15, so
the scheduler gives it a few percent of that CPU in slices of a few
milliseconds spread over the whole op.  Each slice sees the speed the op
sees at that moment, whatever a neighbour on the host is doing.  A
neighbour slows a large interpreter working set (the verifier's) more than
a tight loop, so one unit of work runs through many different parts of the
interpreter and its C library: dicts, JSON, regular expressions, sorting,
Decimal, hashing, struct, complex math, a small class with Fractions,
a generator, exceptions, sets and big-integer arithmetic.  Nothing of the
program being measured runs here, so a change to it cannot change the
meter.  The meter prints ``ready``, repeats the fixed unit until SIGTERM (or
the deadline) and prints one JSON line: units done and the thread CPU
seconds they took.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import re
import signal
import struct
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

NICENESS = 15  # about 3% of the op's CPU: weight 36 against the op's 1024
_MODULUS = 7 ** 300 + 12345
_PAIR = re.compile(r"(\d+)-(\w+)")


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def __add__(self, other):
        return _Point(self.x + other.x, self.y * other.y)


def _squares(n: int):
    for i in range(n):
        yield i * i


def unit():
    """One fixed piece of work, under 1 ms on an idle core."""
    d = {f"k{i}": i * 3 for i in range(120)}
    s = json.dumps(d)
    e = json.loads(s)
    pairs = _PAIR.findall(" ".join(f"{v}-{k}" for k, v in e.items()))
    ranked = sorted(d.items(), key=lambda kv: (-kv[1] % 17, kv[0]))
    with localcontext() as ctx:
        ctx.prec = 60
        q = sum(Decimal(1) / Decimal(k) for k in range(1, 40))
    h = hashlib.sha256(s.encode()).hexdigest()
    b = struct.pack("<40d", *[math.sin(k) for k in range(40)])
    z = sum(cmath.exp(complex(0, k / 7)) for k in range(60))
    p = _Point(0, Fraction(1))
    for k in range(1, 25):
        p = p + _Point(k, Fraction(k, k + 1))
    g = sum(_squares(400))
    try:
        {}["missing"]
    except KeyError:
        pass
    common = set(range(0, 600, 3)) & set(range(0, 600, 5))
    x = 5 ** 150 + 7
    for _ in range(30):
        x = x * x % _MODULUS
    f = "%s|%r|%08.3f" % (h[:8], ranked[:2], float(q))
    return pairs, z, p, g, common, f, b, x


def main() -> int:
    deadline = time.monotonic() + float(sys.argv[1])
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    os.nice(NICENESS)
    unit()  # warm up before counting
    print("ready", flush=True)
    units, cpu_s = 0, 0.0
    start = time.thread_time()
    while not stop and time.monotonic() < deadline:
        unit()
        units += 1
        cpu_s = time.thread_time() - start
    print(json.dumps({"units": units, "cpu_s": cpu_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
