"""Shared low-level utilities: hashing, canonical serialization, RNG, timing.

These helpers are deliberately dependency-free (NumPy only) so that every
other subpackage — the tensor substrate, the Merkle layer, the protocol — can
rely on a single canonical byte representation of tensors and metadata.
"""

from repro.utils.hashing import sha256_hex, sha256_bytes, hash_concat
from repro.utils.serialization import canonical_bytes, canonical_json
from repro.utils.rng import seeded_rng, derive_seed

__all__ = [
    "sha256_hex",
    "sha256_bytes",
    "hash_concat",
    "canonical_bytes",
    "canonical_json",
    "seeded_rng",
    "derive_seed",
]
