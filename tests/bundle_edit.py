"""Take a saved `.dcom` bundle apart and put it back together with a fresh
checksum, so tests can damage its header or parameter bytes and still get past
the CRC check."""

import json
import struct
import zlib

from dcom.serialize import FORMAT_VERSION, MAGIC


def split_bundle(blob: bytes):
    """Return (header dict, parameter bytes) of a well-formed bundle."""
    payload = blob[20:]
    header_len = struct.unpack_from("<I", payload, 0)[0]
    return json.loads(payload[4 : 4 + header_len]), payload[4 + header_len :]


def join_bundle(header, param_bytes: bytes) -> bytes:
    """Serialize a header and parameter bytes as a bundle with a matching CRC."""
    header_bytes = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return sign_payload(struct.pack("<I", len(header_bytes)) + header_bytes + param_bytes)


def sign_payload(payload: bytes) -> bytes:
    """Frame a payload as a bundle: magic, version, length and its CRC."""
    return (MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", len(payload))
            + struct.pack("<I", zlib.crc32(payload)) + payload)
