"""Multimodal-column plumbing: opaque binary payloads through actor-pool
decode stages.

The sandbox has no image/audio codecs, so the DECODE step is a
deterministic fake (clearly marked below); everything Ray-side is real and
tested: a ``binary`` payload column with typed metadata, an actor-pool
``map_batches`` stage whose ``__init__`` stands in for loading a codec/
model, small batch sizes for wide binary rows, and a typed output layout.
Swap ``FakeDecoder._decode`` for a PIL/libav call and nothing else changes
— this mirrors how the reference isolates its multi-backend audio decoder
behind one function (audio_io.py:53-195).

  payload_stats     — byte-length metadata of the payload column
                      (oracle-checked: octet_length in DuckDB)
  multimodal_decode — payload -> fake (width, height, n_frames) features
                      via the actor pool (rows-only: fake decode has no
                      SQL equivalent)
"""

from __future__ import annotations

import zlib

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ._common import _read, _typed
from .quality_filter import _default_pool_size


def _payloads(sf_dir: str) -> ray.data.Dataset:
    """documents.text re-cast as an opaque binary payload column (the
    testdata has no real media; the bytes are treated as a blob)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_binary(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pc.cast(t["text"], pa.large_binary()),
                "media_type": pa.array(["application/octet-stream"] * len(t)),
            }
        )

    return ds.map_batches(to_binary, batch_format="pyarrow")


def payload_stats(sf_dir: str) -> ray.data.Dataset:
    def stats(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bytes": pc.cast(pc.binary_length(t["payload"]), pa.int64()),
            }
        )

    return _typed(
        _payloads(sf_dir).map_batches(stats, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("n_bytes", pa.int64())]),
    )


class FakeDecoder:
    """Actor-pool decode stage.  ``__init__`` is where a real codec or
    vision model would load ONCE per actor (the T1 singleton pattern);
    ``_decode`` is a STUB producing deterministic fake dimensions from the
    payload bytes."""

    def __init__(self) -> None:
        self.ready = True   # real impl: self.codec = load_codec(...)

    @staticmethod
    def _decode(payload: bytes) -> tuple[int, int, int]:
        # STUB — deterministic fake of (width, height, n_frames).
        h = zlib.crc32(payload)
        return (h % 1920) + 1, ((h >> 11) % 1080) + 1, (h % 120) + 1

    def __call__(self, t: pa.Table) -> pa.Table:
        dims = [self._decode(p or b"") for p in t["payload"].to_pylist()]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_bytes": pc.cast(pc.binary_length(t["payload"]), pa.int64()),
                "width": pa.array([d[0] for d in dims], pa.int64()),
                "height": pa.array([d[1] for d in dims], pa.int64()),
                "n_frames": pa.array([d[2] for d in dims], pa.int64()),
            }
        )


def multimodal_decode(sf_dir: str) -> ray.data.Dataset:
    # small batch_size: wide binary rows must not blow a worker heap
    return _payloads(sf_dir).map_batches(
        FakeDecoder,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )


def multimodal_resize(sf_dir: str) -> ray.data.Dataset:
    """Resize stage on decoded media: the DECODE is the stub above, but the
    resize math is REAL — scale each (width, height) to fit a 128px box
    preserving aspect ratio, never upscaling.  Runs after the decode pool,
    demonstrating the chained media pipeline (decode -> transform)."""
    MAX_SIDE = 128

    def resize(t: pa.Table) -> pa.Table:
        import numpy as np

        w = t["width"].to_numpy().astype(np.float64)
        h = t["height"].to_numpy().astype(np.float64)
        scale = np.minimum(1.0, MAX_SIDE / np.maximum(w, h))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "thumb_w": pa.array(
                    np.maximum(1, np.round(w * scale)).astype(np.int64)
                ),
                "thumb_h": pa.array(
                    np.maximum(1, np.round(h * scale)).astype(np.int64)
                ),
            }
        )

    return multimodal_decode(sf_dir).map_batches(resize, batch_format="pyarrow")


def frame_sample(sf_dir: str) -> ray.data.Dataset:
    """Frame-sampling stage: each decoded payload explodes into up to 4
    evenly spaced frame rows (linspace over n_frames — deterministic, no
    RNG) with a per-frame fingerprint.  The frame EXTRACTION is stubbed
    (crc over payload + frame index); the explode plumbing — row
    multiplication inside the batch, typed output, stable ordering — is
    the real pattern a video pipeline needs."""
    K = 4

    def explode(t: pa.Table) -> pa.Table:
        import numpy as np

        out_id, out_idx, out_fp = [], [], []
        for doc_id, payload, n_frames in zip(
            t["doc_id"].to_pylist(),
            t["payload"].to_pylist(),
            t["n_frames"].to_pylist(),
        ):
            idxs = np.unique(
                np.linspace(0, n_frames - 1, min(K, n_frames)).astype(np.int64)
            )
            for i in idxs:
                out_id.append(doc_id)
                out_idx.append(int(i))
                out_fp.append(zlib.crc32((payload or b"") + bytes([i % 256])))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "frame_idx": pa.array(out_idx, pa.int64()),
                "frame_crc": pa.array(out_fp, pa.int64()),
            }
        )

    # one-pass shape: decode + explode inside the same actor stage (frames
    # come straight off the decoder; the payload never re-ships)
    class DecodeAndSample(FakeDecoder):
        def __call__(self, t: pa.Table) -> pa.Table:  # type: ignore[override]
            decoded_t = super().__call__(t)
            merged = decoded_t.append_column("payload", t["payload"])
            return explode(merged)

    return _payloads(sf_dir).map_batches(
        DecodeAndSample,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )


ORACLES: dict[str, str] = {
    "payload_stats": (
        "SELECT doc_id, octet_length(encode(text))::BIGINT AS n_bytes FROM documents"
    ),
}


# ---- REAL decode: PGM (P5) — no codec libs needed ------------------------

def _encode_pgm(doc_id: int) -> bytes:
    """Deterministic valid binary PGM (P5): dims and pixels are pure
    functions of doc_id, so the decoder below can be verified against a
    closed-form ground truth.  This is the test-image generator a real
    pipeline would replace with actual stored media."""
    import numpy as np

    w = 16 + (doc_id % 32)
    h = 12 + (doc_id % 24)
    idx = np.arange(w * h, dtype=np.int64)
    pixels = ((idx * 31 + doc_id) % 256).astype(np.uint8)
    header = f"P5\n{w} {h}\n255\n".encode()
    return header + pixels.tobytes()


class PgmDecoder:
    """Actor-pool decode stage with a REAL parser: binary PGM (P5) header
    + pixel buffer via numpy — the simplest genuine image decode that
    needs no codec library, exercising everything a PIL/libav stage
    would: header parsing, binary -> ndarray, per-image feature extraction
    (mean intensity), and POISON containment (a corrupt payload becomes a
    decode_error row, never a failed batch — S5 analog)."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np        # real impl: self.codec = load_codec(...)

    def _decode(self, payload: bytes):
        np = self.np
        if not payload.startswith(b"P5"):
            raise ValueError("not a P5 PGM")
        parts = payload.split(b"\n", 3)
        if len(parts) < 4:
            raise ValueError("truncated header")
        w, h = (int(x) for x in parts[1].split())
        maxval = int(parts[2])
        if maxval != 255:
            raise ValueError(f"unsupported maxval {maxval}")
        pix = np.frombuffer(parts[3], dtype=np.uint8)
        if len(pix) != w * h:
            raise ValueError(f"pixel buffer {len(pix)} != {w}x{h}")
        # quantized mean keeps the column integer (exact across engines)
        mean_milli = int(round(float(pix.mean()) * 1000))
        return w, h, mean_milli

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs, means, errs = [], [], [], [], []
        for doc_id, payload in zip(
            t["doc_id"].to_pylist(), t["payload"].to_pylist()
        ):
            ids.append(doc_id)
            try:
                w, h, m = self._decode(payload or b"")
                ws.append(w)
                hs.append(h)
                means.append(m)
                errs.append(None)
            except (ValueError, OverflowError) as exc:
                ws.append(0)
                hs.append(0)
                means.append(0)
                errs.append(str(exc))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "width": pa.array(ws, pa.int64()),
                "height": pa.array(hs, pa.int64()),
                "mean_milli": pa.array(means, pa.int64()),
                "decode_error": pa.array(errs, pa.string()),
            }
        )


def decode_pgm(sf_dir: str) -> ray.data.Dataset:
    """End-to-end REAL image decode: synthesize a PGM payload per doc_id
    (stand-in for stored media), then parse it in the actor-pool decoder.
    Every 97th payload is deliberately truncated to exercise the poison
    path."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        payloads = []
        for i in t["doc_id"].to_pylist():
            b = _encode_pgm(int(i))
            if i % 97 == 13:
                b = b[: len(b) // 2]       # corrupt: truncated pixel buffer
            payloads.append(b)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(payloads, pa.large_binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow").map_batches(
        PgmDecoder,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )


# ---- REAL audio decode (stdlib wave + numpy; reference parity: the
# ---- LangId service decodes audio before scoring, audio_io.py:53-195) ----

def _encode_wav(doc_id: int) -> bytes:
    """Deterministic valid RIFF/WAVE payload: mono 16-bit PCM at 8 kHz
    whose length, frequency and amplitude are pure functions of doc_id,
    so the decoder below can be verified against closed-form ground
    truth.  The audio analog of ``_encode_pgm``."""
    import io
    import wave

    import numpy as np

    sr = 8000
    n = 400 + (doc_id % 37) * 40            # 50-230 ms of audio
    freq = 100 + (doc_id % 20) * 25
    amp = 3000 + (doc_id % 11) * 2000
    t = np.arange(n, dtype=np.float64)
    samples = (amp * np.sin(2 * np.pi * freq * t / sr)).astype(np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sr)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


class WavDecoder:
    """Actor-pool decode stage with a REAL audio parser: RIFF/WAVE via
    the stdlib ``wave`` module + numpy PCM buffer — the audio counterpart
    of ``PgmDecoder``, exercising the same contract a soundfile/libav
    stage would: container parsing, binary -> int16 ndarray, per-clip
    feature extraction (duration / peak / RMS), and POISON containment
    (a corrupt payload becomes a decode_error row, never a failed
    batch)."""

    def __init__(self) -> None:
        import wave

        import numpy as np

        self.wave = wave    # real impl: self.codec = soundfile / libav
        self.np = np

    def _decode(self, payload: bytes):
        import io

        np, wave = self.np, self.wave
        with wave.open(io.BytesIO(payload), "rb") as w:
            if w.getsampwidth() != 2 or w.getnchannels() != 1:
                raise ValueError("unsupported wav layout")
            sr = w.getframerate()
            n = w.getnframes()
            pcm = np.frombuffer(w.readframes(n), dtype=np.int16)
        if len(pcm) != n:
            raise ValueError(f"frame buffer {len(pcm)} != {n}")
        dur_ms = n * 1000 // sr
        peak = int(np.abs(pcm.astype(np.int32)).max()) if n else 0
        rms_milli = (
            int(round(float(np.sqrt(np.mean(pcm.astype(np.float64) ** 2))) * 1000))
            if n
            else 0
        )
        return n, sr, dur_ms, peak, rms_milli

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ns, srs, durs, peaks, rmss, errs = [], [], [], [], [], [], []
        for doc_id, payload in zip(
            t["doc_id"].to_pylist(), t["payload"].to_pylist()
        ):
            ids.append(doc_id)
            try:
                n, sr, dur, peak, rms = self._decode(payload or b"")
                ns.append(n)
                srs.append(sr)
                durs.append(dur)
                peaks.append(peak)
                rmss.append(rms)
                errs.append(None)
            except Exception as exc:    # wave.Error / EOFError / ValueError
                ns.append(0)
                srs.append(0)
                durs.append(0)
                peaks.append(0)
                rmss.append(0)
                errs.append(str(exc) or type(exc).__name__)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_samples": pa.array(ns, pa.int64()),
                "sample_rate": pa.array(srs, pa.int64()),
                "duration_ms": pa.array(durs, pa.int64()),
                "peak": pa.array(peaks, pa.int64()),
                "rms_milli": pa.array(rmss, pa.int64()),
                "decode_error": pa.array(errs, pa.string()),
            }
        )


def decode_wav(sf_dir: str) -> ray.data.Dataset:
    """End-to-end REAL audio decode: synthesize a WAV payload per doc_id
    (stand-in for stored clips), then parse it in the actor-pool decoder.
    Every 89th payload is deliberately truncated to exercise the poison
    path.  Small batches for wide binary rows, pool sized like the other
    decode stages."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        payloads = []
        for i in t["doc_id"].to_pylist():
            b = _encode_wav(int(i))
            if i % 89 == 7:
                b = b[: len(b) // 3]       # corrupt: truncated RIFF body
            payloads.append(b)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(payloads, pa.large_binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow").map_batches(
        WavDecoder,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )


# ---- REAL decode: BMP (24-bit uncompressed) — no codec libs needed --------

def _encode_bmp(doc_id: int) -> bytes:
    """Deterministic valid 24-bit uncompressed BMP (BITMAPINFOHEADER):
    little-endian struct header, BOTTOM-UP row order, BGR channel order,
    rows padded to 4 bytes — the real quirks a BMP codec must handle.
    Pixels are a pure function of (x, y, doc_id) so the decoder verifies
    against a closed form."""
    import struct

    import numpy as np

    w = 8 + (doc_id % 16)
    h = 6 + (doc_id % 12)
    row_size = (3 * w + 3) // 4 * 4
    y, x = np.mgrid[0:h, 0:w]
    # channel c value at (x, y): (x*7 + y*13 + doc_id + c*29) % 256
    base = (x * 7 + y * 13 + doc_id) % 256
    bgr = np.stack(
        [(base + c * 29) % 256 for c in (2, 1, 0)], axis=2
    ).astype(np.uint8)                      # file stores B,G,R
    rows = np.zeros((h, row_size), dtype=np.uint8)
    rows[:, : 3 * w] = bgr.reshape(h, 3 * w)
    pixel_data = rows[::-1].tobytes()       # bottom-up
    header = b"BM" + struct.pack("<IHHI", 14 + 40 + len(pixel_data), 0, 0, 54)
    info = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(pixel_data), 2835, 2835, 0, 0
    )
    return header + info + pixel_data


class BmpDecoder:
    """Second REAL image parser (alongside PGM): 24-bit uncompressed BMP
    via struct + numpy — signature check, little-endian header fields,
    bottom-up flip, row-padding strip, BGR->RGB — with the same poison
    containment contract (corrupt payload -> decode_error row, never a
    failed batch; S5 analog)."""

    def __init__(self) -> None:
        import struct

        import numpy as np

        self.np, self.struct = np, struct   # real impl: load_codec(...)

    def _decode(self, payload: bytes):
        np, struct = self.np, self.struct
        if len(payload) < 54 or payload[:2] != b"BM":
            raise ValueError("not a BMP")
        data_off = struct.unpack_from("<I", payload, 10)[0]
        hsz, w, h, planes, bpp, comp = struct.unpack_from(
            "<IiiHHI", payload, 14
        )
        if hsz < 40 or planes != 1 or bpp != 24 or comp != 0:
            raise ValueError(f"unsupported BMP (bpp={bpp}, comp={comp})")
        if w <= 0 or h == 0:
            raise ValueError("bad dimensions")
        flip = h > 0                      # positive height = bottom-up
        h = abs(h)
        row_size = (3 * w + 3) // 4 * 4
        need = data_off + row_size * h
        if len(payload) < need:
            raise ValueError(f"pixel data {len(payload)} < {need}")
        rows = np.frombuffer(
            payload, dtype=np.uint8, count=row_size * h, offset=data_off
        ).reshape(h, row_size)
        if flip:
            rows = rows[::-1]
        bgr = rows[:, : 3 * w].reshape(h, w, 3)
        rgb = bgr[:, :, ::-1]
        means = [int(round(float(rgb[:, :, c].mean()) * 1000)) for c in range(3)]
        return w, h, means[0], means[1], means[2]

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs, mr, mg, mb, errs = [], [], [], [], [], [], []
        for doc_id, payload in zip(
            t["doc_id"].to_pylist(), t["payload"].to_pylist()
        ):
            ids.append(doc_id)
            try:
                w, h, r, g, b = self._decode(payload or b"")
                ws.append(w); hs.append(h)
                mr.append(r); mg.append(g); mb.append(b)
                errs.append(None)
            except (ValueError, OverflowError) as exc:
                ws.append(0); hs.append(0)
                mr.append(0); mg.append(0); mb.append(0)
                errs.append(str(exc))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "width": pa.array(ws, pa.int64()),
                "height": pa.array(hs, pa.int64()),
                "mean_r_milli": pa.array(mr, pa.int64()),
                "mean_g_milli": pa.array(mg, pa.int64()),
                "mean_b_milli": pa.array(mb, pa.int64()),
                "decode_error": pa.array(errs, pa.string()),
            }
        )


def decode_bmp(sf_dir: str) -> ray.data.Dataset:
    """End-to-end REAL BMP decode: synthesize a payload per doc_id, parse
    in the actor-pool decoder.  Every 83rd payload is truncated and every
    101st gets a corrupted signature to exercise both poison paths."""
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(t: pa.Table) -> pa.Table:
        payloads = []
        for i in t["doc_id"].to_pylist():
            b = _encode_bmp(int(i))
            if i % 83 == 5:
                b = b[: len(b) // 2]
            elif i % 101 == 9:
                b = b"XX" + b[2:]
            payloads.append(b)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "payload": pa.array(payloads, pa.large_binary()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow").map_batches(
        BmpDecoder,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=(1, _default_pool_size()),
        num_cpus=1,
    )
