"""Pinned VLD firings on the six Fig. 6 streams.

The digests below were recorded with the bit-serial Huffman decoder.
Any faster decoder must leave every firing's cycle count, block payload
bytes and nonzero count untouched, so these must match exactly.
"""

import hashlib

import pytest

from repro.appmodel import FiringContext
from repro.mjpeg.actors import MJPEGActorSet

#: Two wraps of the 16-MCU streams plus one firing into the third pass.
FIRINGS = 33

#: sequence -> (sha256 over all firings, sum of the firings' cycles)
PINNED = {
    "blobs": (
        "ec6f0257d69d67c8ae42d9d1c60721ce"
        "d2bda782caec5dfca646ab71be28eaa2",
        1_793_068,
    ),
    "checkerboard": (
        "5bc0d427b9921654a1cfcf81929c402b"
        "40c3b48c0011e70b79545c80900e12f5",
        3_021_748,
    ),
    "gradient": (
        "534f4c7e825b73b556209fb9aedfb7f9"
        "dcfec5d7624c881b4a3eba787f1f7344",
        1_437_112,
    ),
    "photo": (
        "d5c803697a2f645525aed8a3078cbd73"
        "a4e26f6ed6a3011bd4df7c3805aca0cb",
        2_386_024,
    ),
    "synthetic": (
        "9eaa9ee9e6554586777f02b0add4e7cb"
        "fe0ce2daa85774ddd34d2ecab819311f",
        7_947_934,
    ),
    "text": (
        "d51f7bd82509cb2629aee87574265bf3"
        "7d56cd180a56e1d57e085f1841200a9b",
        2_457_200,
    ),
}


def vld_digest(encoded):
    """Fire the VLD ``FIRINGS`` times; digest what each firing emits."""
    actors = MJPEGActorSet(encoded)
    state = {}
    actors.vld_init(state)
    digest = hashlib.sha256()
    total = 0
    for index in range(FIRINGS):
        output = actors.vld(FiringContext(state=state, firing_index=index))
        digest.update(b"cycles %d;" % output.cycles)
        total += output.cycles
        for token in output.outputs["vld2iqzz"]:
            digest.update(b"%s %d %d;" % (
                token.component.encode(), token.valid, token.nonzero
            ))
            if token.payload is not None:
                digest.update(token.payload.dtype.str.encode())
                digest.update(token.payload.tobytes())
    return digest.hexdigest(), total


@pytest.mark.parametrize("name", sorted(PINNED))
def test_vld_firings_match_recording(fig6_sequences, name):
    assert vld_digest(fig6_sequences[name]) == PINNED[name]
