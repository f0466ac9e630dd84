"""Hashing, key derivation and random-oracle instantiations.

Provides canonical (injective) encodings of mixed int/bytes/str tuples so
that every Fiat-Shamir challenge and protocol transcript hash in the library
is domain-separated and unambiguous, plus:

* :func:`hash_to_int` — H: {0,1}* -> [0, 2^bits)
* :func:`hash_mod`    — H: {0,1}* -> Z_q
* :func:`hash_to_qr`  — the "ideal hash" into QR(n) used by the paper's
  self-distinction construction (Section 8.2): expand, reduce mod n, square.
* :func:`kdf`         — labeled key derivation (HKDF-like, SHA-256 based).
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Iterable, Union

from repro import metrics
from repro.errors import EncodingError

Encodable = Union[int, bytes, str, bool, None]

_INT_TAG = b"\x01"
_BYTES_TAG = b"\x02"
_STR_TAG = b"\x03"
_NONE_TAG = b"\x04"
_BOOL_TAG = b"\x05"
_SEQ_TAG = b"\x06"


def encode_element(value) -> bytes:
    """Injective encoding of one value (ints may be negative)."""
    if value is None:
        return _NONE_TAG + b"\x00\x00\x00\x00"
    if isinstance(value, bool):
        payload = b"\x01" if value else b"\x00"
        return _BOOL_TAG + len(payload).to_bytes(4, "big") + payload
    if isinstance(value, int):
        sign = b"-" if value < 0 else b"+"
        magnitude = abs(value)
        payload = sign + magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
        return _INT_TAG + len(payload).to_bytes(4, "big") + payload
    if isinstance(value, bytes):
        return _BYTES_TAG + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        payload = value.encode("utf-8")
        return _STR_TAG + len(payload).to_bytes(4, "big") + payload
    if isinstance(value, (tuple, list)):
        inner = b"".join(encode_element(v) for v in value)
        return _SEQ_TAG + len(inner).to_bytes(4, "big") + inner
    raise EncodingError(f"cannot encode value of type {type(value).__name__}")


def encode(*values) -> bytes:
    """Injective encoding of a tuple of values."""
    return b"".join(encode_element(v) for v in values)


def digest(domain: str, *values) -> bytes:
    """SHA-256 over the domain-separated canonical encoding of ``values``."""
    metrics.count_hash()
    h = hashlib.sha256()
    h.update(encode_element(domain))
    h.update(encode(*values))
    return h.digest()


def expand(domain: str, seed: bytes, nbytes: int) -> bytes:
    """Expand ``seed`` to ``nbytes`` output bytes (counter-mode SHA-256)."""
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        metrics.count_hash()
        h = hashlib.sha256()
        h.update(encode_element(domain))
        h.update(counter.to_bytes(4, "big"))
        h.update(seed)
        out.extend(h.digest())
        counter += 1
    return bytes(out[:nbytes])


def hash_to_int(domain: str, bits: int, *values) -> int:
    """H: {0,1}* -> [0, 2^bits)."""
    nbytes = (bits + 7) // 8
    raw = expand(domain, encode(*values), nbytes)
    value = int.from_bytes(raw, "big")
    excess = 8 * nbytes - bits
    return value >> excess


def hash_mod(domain: str, modulus: int, *values) -> int:
    """H: {0,1}* -> Z_modulus, with negligible bias (64 extra bits)."""
    bits = modulus.bit_length() + 64
    return hash_to_int(domain, bits, *values) % modulus


def hash_to_qr(domain: str, modulus: int, *values) -> int:
    """Random-oracle hash into QR(modulus): reduce then square.

    This is the instantiation of the paper's "idealized hash function
    H : {0,1}* -> R subset-of QR(n)" (Section 8.2, footnote 8) used to derive
    the common T7 base for self-distinction.
    """
    candidate = hash_mod(domain, modulus, *values)
    if candidate in (0, 1):
        candidate += 2
    return (candidate * candidate) % modulus


def kdf(key: bytes, label: str, nbytes: int = 32) -> bytes:
    """Labeled key derivation from ``key`` (HKDF-expand flavoured)."""
    metrics.count_hash()
    prk = _hmac.new(b"repro-kdf-salt", key, hashlib.sha256).digest()
    out = bytearray()
    block = b""
    counter = 1
    while len(out) < nbytes:
        metrics.count_hash()
        block = _hmac.new(
            prk, block + label.encode("utf-8") + bytes([counter]), hashlib.sha256
        ).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:nbytes])


def int_to_key(value: int, label: str = "int-key", nbytes: int = 32) -> bytes:
    """Derive a symmetric key from a (group-element sized) integer."""
    raw = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
    return kdf(raw, label, nbytes)


def fingerprint(*values) -> str:
    """Short hex fingerprint for logging/debugging (never for security)."""
    return digest("fingerprint", *values).hex()[:16]


def iter_digest(domain: str, values: Iterable) -> bytes:
    """Digest of an iterable without materializing the encoding list."""
    metrics.count_hash()
    h = hashlib.sha256()
    h.update(encode_element(domain))
    for v in values:
        h.update(encode_element(v))
    return h.digest()
