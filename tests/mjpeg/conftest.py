"""Shared fixtures: the encoded Fig. 6 input sequences."""

import pytest

from repro.mjpeg import (
    encode_sequence,
    synthetic_sequence,
    test_set_sequences,
)


@pytest.fixture(scope="session")
def fig6_sequences():
    """The six Fig. 6 streams: 10-block MCUs (``h=4, v=2``), the five
    structured sequences at quality 75 and the synthetic one at 98.
    Each stream holds two 64x64 frames of 8 MCUs."""
    encoded = {
        name: encode_sequence(frames, quality=75, h=4, v=2)
        for name, frames in test_set_sequences(n_frames=2).items()
    }
    encoded["synthetic"] = encode_sequence(
        synthetic_sequence(n_frames=2), quality=98, h=4, v=2
    )
    return encoded
