"""MSB-first bit-level I/O for the MJPEG codec."""

from __future__ import annotations

from repro.exceptions import BitstreamError

#: Bytes behind one :meth:`BitReader.window`: 32 bits at any bit offset.
WINDOW_BYTES = 5


def overrun(position: int, bits: int) -> BitstreamError:
    """The error for a read of ``bits`` bits past the end at ``position``."""
    return BitstreamError(
        f"bitstream exhausted at bit {position} (wanted {bits} more)"
    )


class BitWriter:
    """Accumulates bits MSB-first into a byte string."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._accumulator = 0
        self._bit_count = 0

    def write(self, value: int, bits: int) -> None:
        """Append the ``bits`` least-significant bits of ``value``."""
        if bits < 0 or bits > 32:
            raise BitstreamError(f"bit count {bits} out of range")
        if bits == 0:
            return
        if value < 0 or value >= (1 << bits):
            raise BitstreamError(
                f"value {value} does not fit in {bits} bit(s)"
            )
        self._accumulator = (self._accumulator << bits) | value
        self._bit_count += bits
        while self._bit_count >= 8:
            self._bit_count -= 8
            self._bytes.append(
                (self._accumulator >> self._bit_count) & 0xFF
            )
        self._accumulator &= (1 << self._bit_count) - 1

    def align(self) -> None:
        """Pad with 1-bits to the next byte boundary (JPEG convention)."""
        if self._bit_count:
            pad = 8 - self._bit_count
            self.write((1 << pad) - 1, pad)

    def getvalue(self) -> bytes:
        """Byte string written so far (call :meth:`align` first to flush)."""
        if self._bit_count:
            raise BitstreamError(
                f"{self._bit_count} unflushed bit(s); call align() first"
            )
        return bytes(self._bytes)

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._bit_count


class BitReader:
    """Reads bits MSB-first from a byte string.

    Tracks ``bits_consumed`` so the VLD cost model can charge per decoded
    bit, the dominant term of software Huffman decoding on a Microblaze.
    Reads go through :meth:`window`, 32 bits at a time.
    """

    def __init__(self, data: bytes) -> None:
        # Zero bytes past the end keep a window near the end in range.
        self._padded = bytes(data) + bytes(WINDOW_BYTES)
        self.length_bits = len(data) * 8
        self._position = 0  # bit position
        self.bits_consumed = 0

    def window(self, position: int) -> int:
        """The 32 bits from bit ``position`` on, MSB first; bits past the
        end of the data read as zeros."""
        byte = position >> 3
        return (
            int.from_bytes(self._padded[byte:byte + WINDOW_BYTES], "big")
            >> (8 - (position & 7))
        ) & 0xFFFFFFFF

    def read(self, bits: int) -> int:
        """Read ``bits`` bits as an unsigned integer."""
        if bits < 0 or bits > 32:
            raise BitstreamError(f"bit count {bits} out of range")
        value = self.window(self._position) >> (32 - bits)
        self.skip(bits)
        return value

    def skip(self, bits: int) -> None:
        """Consume ``bits`` bits (counted in ``bits_consumed``)."""
        if self._position + bits > self.length_bits:
            raise overrun(self._position, bits)
        self._position += bits
        self.bits_consumed += bits

    def align(self) -> None:
        """Skip to the next byte boundary."""
        remainder = self._position & 7
        if remainder:
            self.skip(8 - remainder)

    def seek_bits(self, bit_position: int) -> None:
        if bit_position < 0 or bit_position > self.length_bits:
            raise BitstreamError(f"seek to {bit_position} out of range")
        self._position = bit_position

    @property
    def position_bits(self) -> int:
        return self._position

    @property
    def exhausted(self) -> bool:
        return self._position >= self.length_bits
