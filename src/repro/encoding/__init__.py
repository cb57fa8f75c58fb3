"""Answer encoding: POI lists <-> vectors of big integers below N.

The private selection of Theorem 3.1 operates on an answer matrix whose
entries are plaintext integers of the Paillier plaintext space Z_N, so each
candidate answer (a ranked POI list) must be serialized into ``m`` integers
smaller than N, zero-padded so every candidate uses exactly the same ``m``
(Section 3.2).  :class:`~repro.encoding.answers.AnswerCodec` performs the
round trip; it cuts each answer's bit stream into those integers with the
chunking helpers of :mod:`repro.encoding.packing`.
"""

from repro.encoding.answers import AnswerCodec, DecodedAnswer

__all__ = [
    "AnswerCodec",
    "DecodedAnswer",
]
