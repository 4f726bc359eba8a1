"""Grayscale image I/O.

Binary PGM (P5, maxval 255) is the native format; PNG works when Pillow
is installed.  Brightness maps linearly between [0, 1] floats and
[0, 255] bytes with round-half-up quantization.
"""

from pathlib import Path

import numpy as np


def to_bytes_image(img: np.ndarray) -> np.ndarray:
    """Quantize a [0, 1] float image to uint8, rounding halves up."""
    img = np.asarray(img, dtype=float)
    return np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)


def from_bytes_image(raw: np.ndarray) -> np.ndarray:
    return raw.astype(float) / 255.0


def write_pgm(path, img: np.ndarray) -> None:
    data = to_bytes_image(img)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    # header = magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos == len(raw):
            raise ValueError(f"{path}: PGM header ends after {len(tokens)} of 4 fields")
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM file: magic {tokens[0]!r}")
    if not all(t.isdigit() for t in tokens[1:4]):
        raise ValueError(f"{path}: PGM header fields {tokens[1:4]} are not integers")
    w, h, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < w * h:
        raise ValueError(
            f"{path}: PGM data truncated: {max(len(raw) - pos, 0)} of {w * h} bytes"
        )
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return from_bytes_image(data.reshape(h, w))


def read_image(path) -> np.ndarray:
    path = Path(path)
    if path.suffix.lower() == ".pgm":
        return read_pgm(path)
    if path.suffix.lower() == ".png":
        arr = np.asarray(_pil().open(path).convert("L"))
        return from_bytes_image(arr)
    raise ValueError(f"unsupported image extension: {path.suffix!r}")


def _pil():
    try:
        from PIL import Image
    except ImportError as exc:  # pragma: no cover
        raise ImportError("PNG support needs Pillow: pip install Pillow") from exc
    return Image
