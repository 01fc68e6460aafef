"""The incremental frame parser over realistic streams.

``FrameReader.feed`` parses every header in place and copies each body
once; these tests pin what that must not change: any split of a stream
yields the same frames, a full 64 KiB socket read of small frames parses
completely, and damage fails typed.
"""

from __future__ import annotations

import struct

import pytest

from bench.layers import corpus
from repro.errors import WireFormatError, WireIntegrityError
from repro.wire.codec import WireCodec
from repro.wire.framing import FRAME_HEADER_SIZE, MAX_BODY_SIZE, FrameReader, decode_frame

CODEC = WireCodec()
MESSAGES = corpus()
FRAMES = [
    CODEC.encode_envelope("r0", "pillar0", "pillar0", MESSAGES[name])
    for name in ("request", "prepare_b1", "commit", "reply", "prepare_b16_1k", "commit", "reply")
]
STREAM = b"".join(FRAMES)


def test_byte_at_a_time_yields_the_frames_of_one_feed():
    whole = FrameReader().feed(STREAM)
    assert whole == [decode_frame(frame) for frame in FRAMES]
    reader = FrameReader()
    pieces = []
    for i in range(len(STREAM)):
        pieces.extend(reader.feed(STREAM[i : i + 1]))
    assert pieces == whole
    assert reader.pending_bytes == 0
    assert reader.frames_parsed == len(FRAMES)
    assert reader.bytes_consumed == len(STREAM)


@pytest.mark.parametrize("chunk", [7, 19, 20, 21, 100, 4096])
def test_any_chunking_yields_the_same_frames(chunk):
    reader = FrameReader()
    frames = []
    for start in range(0, len(STREAM), chunk):
        frames.extend(reader.feed(STREAM[start : start + chunk]))
    assert frames == FrameReader().feed(STREAM)
    assert reader.pending_bytes == 0


def test_a_64k_read_of_small_frames_parses_completely():
    small = [CODEC.encode_envelope("r0", "pillar0", "pillar0", MESSAGES[name]) for name in ("commit", "reply")]
    frames = []
    size = 0
    while size + len(small[len(frames) % 2]) <= 64 * 1024:
        frames.append(small[len(frames) % 2])
        size += len(frames[-1])
    assert 550 <= len(frames) <= 650
    reader = FrameReader()
    parsed = reader.feed(b"".join(frames))
    assert [frame.body for frame in parsed] == [decode_frame(frame).body for frame in frames]
    assert reader.frames_parsed == len(frames)
    assert reader.bytes_consumed == size
    assert reader.pending_bytes == 0


@pytest.mark.parametrize("k", [0, 3, len(FRAMES) - 1])
def test_a_crc_flip_in_frame_k_raises_integrity_error(k):
    damaged = bytearray(FRAMES[k])
    damaged[FRAME_HEADER_SIZE + len(damaged[FRAME_HEADER_SIZE:]) // 2] ^= 0x40
    stream = b"".join(FRAMES[:k]) + bytes(damaged) + b"".join(FRAMES[k + 1 :])
    with pytest.raises(WireIntegrityError):
        FrameReader().feed(stream)


def test_a_bad_magic_raises_format_error():
    damaged = b"XX" + FRAMES[1][2:]
    with pytest.raises(WireFormatError):
        FrameReader().feed(FRAMES[0] + damaged)


def test_an_oversize_length_raises_format_error():
    header = bytearray(FRAMES[0][:FRAME_HEADER_SIZE])
    struct.pack_into(">I", header, 6, MAX_BODY_SIZE + 1)  # the body length field
    with pytest.raises(WireFormatError):
        FrameReader().feed(bytes(header))
