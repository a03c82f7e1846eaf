"""Binary payload columns through an actor-pool decode stage.

  payload_stats — byte-length metadata of the payload column
                  (oracle-checked: octet_length in DuckDB)
  decode_wav    — a synthesized RIFF/WAVE payload per doc, parsed by
                  ``WavDecoder`` in an actor pool whose ``__init__``
                  stands in for loading a codec; a corrupt payload becomes
                  a ``decode_error`` row, never a failed batch (rows-only:
                  binary parsing has no SQL equivalent).  This mirrors how
                  the reference isolates its audio decoder behind one
                  function (audio_io.py:53-195).
"""

from __future__ import annotations

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


ORACLES: dict[str, str] = {
    "payload_stats": (
        "SELECT doc_id, octet_length(encode(text))::BIGINT AS n_bytes FROM documents"
    ),
}


# ---- REAL audio decode (stdlib wave + numpy; reference parity: the
# ---- LangId service decodes audio before scoring, audio_io.py:53-195) ----

def _encode_wav(doc_id: int) -> bytes:
    """Deterministic valid RIFF/WAVE payload: mono 16-bit PCM at 8 kHz
    whose length, frequency and amplitude are pure functions of doc_id,
    so the decoder below can be verified against closed-form ground
    truth."""
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
    the stdlib ``wave`` module + numpy PCM buffer, exercising the same
    contract a soundfile/libav stage would: container parsing, binary ->
    int16 ndarray, per-clip feature extraction (duration / peak / RMS),
    and POISON containment (a corrupt payload becomes a decode_error row,
    never a failed batch)."""

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
    path.  Small batches for wide binary rows."""
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
