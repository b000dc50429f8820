"""An independent replay of the documented ``diam2:`` sampling stream.

``distinv.sweeps`` documents its diameter-2 stream as a contract: a
counter-based generator, the pair order, and the probability cycle.  This
module follows that text with its own code, so the benchmark can count the
attempts the sampler makes (no public function reports them) and check
that the program's samples are the documented ones.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_P_CYCLE = ((3, 10), (5, 10), (7, 10))
_THRESHOLDS = tuple((num << 64) // den for num, den in _P_CYCLE)


def _mix64(x: int) -> int:
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1FE4E57B) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _diameter_is_2(adj, n) -> bool:
    full = (1 << n) - 1
    complete = True
    for v in range(n):
        closed = adj[v] | (1 << v)
        if closed == full:
            continue
        complete = False
        reach = closed
        for u in range(n):
            if adj[v] >> u & 1:
                reach |= adj[u]
        if reach != full:
            return False
    return not complete


def replay(n: int, count: int, seed: int):
    """Edge lists of samples ``0..count-1`` of order n, and the attempts made.

    Sample ``i``, attempt ``j`` draws the ``e``-th vertex pair (order
    (0,1), (0,2), (1,2), (0,3), ...) from counter ``(i*2^21 + j)*2^13 + e``
    and keeps it when ``mix64(key + counter*golden) < p*2^64``, with
    ``p = cycle[(i + j) mod 3]`` and ``key = mix64(seed ^ mix64(n*golden))``.
    The first attempt whose graph has diameter exactly 2 is the sample.
    """
    key = _mix64((seed & _M64) ^ _mix64((n * _GOLDEN) & _M64))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    samples = []
    attempts = 0
    for i in range(count):
        j = 0
        while True:
            attempts += 1
            thresh = _THRESHOLDS[(i + j) % 3]
            base = ((i << 21) | j) << 13
            adj = [0] * n
            edges = []
            for e, (u, v) in enumerate(pairs):
                if _mix64((key + (base + e) * _GOLDEN) & _M64) < thresh:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    edges.append((u, v))
            if _diameter_is_2(adj, n):
                samples.append(sorted(edges))
                break
            j += 1
    return samples, attempts
