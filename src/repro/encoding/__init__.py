"""Answer encoding: POI lists <-> vectors of big integers below N.

The private selection of Theorem 3.1 operates on an answer matrix whose
entries are plaintext integers of the Paillier plaintext space Z_N, so each
candidate answer (a ranked POI list) must be serialized into ``m`` integers
smaller than N, zero-padded so every candidate uses exactly the same ``m``
(Section 3.2).  This package provides the bit-packing primitives and the
:class:`~repro.encoding.answers.AnswerCodec` that performs the round trip.
"""

from repro.encoding.answers import AnswerCodec, DecodedAnswer
from repro.encoding.packing import pack_fields, unpack_fields

__all__ = [
    "AnswerCodec",
    "DecodedAnswer",
    "pack_fields",
    "unpack_fields",
]
