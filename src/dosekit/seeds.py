"""Deterministic sub-seed derivation.

One master seed drives the whole pipeline; every stage derives its own seed as
a hash of the master seed plus a purpose label, so any stage can be rerun in
isolation and reproduce its outputs exactly. SHA-256 keeps the derivation
stable across platforms and Python processes (unlike the builtin hash()).
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: object) -> int:
    """Hash (master seed, purpose labels...) into a 63-bit sub-seed."""
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1
