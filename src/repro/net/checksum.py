"""The Internet checksum (RFC 1071).

Used for IPv4 headers, ICMP messages, and the UDP/TCP pseudo-header
checksums emitted into pcap captures.

The checksum is computed with a machine-order ``array('H')`` fold rather
than ``struct.iter_unpack``: RFC 1071 §2(B) notes the one's-complement
sum is byte-order independent, so we sum native 16-bit words in C speed
and byte-swap the folded result once on little-endian hosts.  This is
the hottest pure function on the wire-encoding path (three checksums per
encoded TCP/UDP packet).
"""

import struct
import sys
from array import array

_SWAP_RESULT = sys.byteorder == "little"


def internet_checksum(data):
    """Compute the 16-bit one's-complement checksum of ``data``.

    ``data`` may be any bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``).  Odd-length input is padded with a zero byte, per
    RFC 1071.  The return value is the checksum field value (i.e. already
    complemented).
    """
    if not isinstance(data, (bytes, bytearray)):
        # array('H', memoryview) would widen each *byte* to a word.
        data = bytes(data)
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = sum(array("H", data))
    # Fold carries back in until the sum fits in 16 bits.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    if _SWAP_RESULT:
        total = ((total & 0xFF) << 8) | (total >> 8)
    return (~total) & 0xFFFF


def internet_checksum_batch(blobs):
    """Checksums of many bytes-like blobs in one vectorized pass.

    Equivalent to ``[internet_checksum(b) for b in blobs]`` but folds
    every word of every blob in a handful of numpy array operations.
    Blobs are grouped by length — an experiment uses a handful of
    payload sizes, the same low-cardinality assumption behind the wire
    codec's caches — and each group is concatenated into one buffer and
    summed as a 2-D word matrix (one row per blob), followed by a
    vectorized carry fold.  This is what makes batch packet encoding
    (:func:`repro.net.wire.encode_ipv4_batch`) pay off — the checksum
    is the only part of encoding that touches every payload byte.

    numpy is imported on the first call rather than with the module: no
    simulated cell encodes in batches, and the import alone would
    double a fresh process's start-up time.
    """
    if not blobs:
        return []
    try:
        import numpy as np
    except ImportError:  # stripped install: keep the semantics, lose the speed
        return [internet_checksum(blob) for blob in blobs]
    groups = {}
    for i, blob in enumerate(blobs):
        if not isinstance(blob, (bytes, bytearray)):
            blob = bytes(blob)
        group = groups.get(len(blob))
        if group is None:
            group = groups[len(blob)] = ([], [])
        group[0].append(i)
        group[1].append(blob)
    results = [0] * len(blobs)
    for length, (indices, members) in groups.items():
        if length == 0:
            for i in indices:
                results[i] = 0xFFFF  # empty input: ~0
            continue
        if length & 1:
            # Uniform odd length: a zero byte after every member pads
            # each to even (RFC 1071) in a single join.
            buf = b"\x00".join(members) + b"\x00"
        else:
            buf = b"".join(members)
        # Machine-order words, like the array('H') scalar fold; the
        # one's-complement sum is byte-order independent (RFC 1071
        # §2(B)) so only the folded result is swapped.
        words = np.frombuffer(buf, dtype=np.uint16)
        sums = words.reshape(len(members), -1).sum(axis=1, dtype=np.uint64)
        while (sums >> np.uint64(16)).any():
            sums = (sums & np.uint64(0xFFFF)) + (sums >> np.uint64(16))
        if _SWAP_RESULT:
            sums = (((sums & np.uint64(0xFF)) << np.uint64(8))
                    | (sums >> np.uint64(8)))
        for i, value in zip(indices, ((~sums) & np.uint64(0xFFFF)).tolist()):
            results[i] = value
    return results


def verify_checksum(data):
    """True when ``data`` (including its checksum field) sums to zero."""
    return internet_checksum(data) == 0


_PSEUDO = struct.Struct("!4s4sBBH")
_pseudo_cache = {}


def pseudo_header(src_ip, dst_ip, protocol, length):
    """IPv4 pseudo-header used by UDP and TCP checksums.

    Cached: an experiment reuses a handful of (src, dst, protocol,
    length) combinations thousands of times.
    """
    key = (src_ip, dst_ip, protocol, length)
    cached = _pseudo_cache.get(key)
    if cached is None:
        cached = _PSEUDO.pack(src_ip.packed, dst_ip.packed, 0, protocol,
                              length)
        if len(_pseudo_cache) < 4096:
            _pseudo_cache[key] = cached
    return cached
