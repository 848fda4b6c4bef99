"""Binary (de)serialization of packet captures.

Darknet captures run to millions of packets; CSV would be wasteful, so
captures persist as compressed ``.npz`` archives holding the
:class:`~repro.packet.PacketBatch` columns verbatim.  The format is a
stand-in for pcap in this reproduction: lossless for everything the
analyses consume.

Writes are crash-safe: every archive lands via tmp + fsync + rename
(a crash leaves either the previous file or the complete new one,
never a truncated hybrid), and chunked captures carry a ``MANIFEST.json``
recording each chunk's sha256 digest *as it is written* — so a reader
can tell exactly which chunks of an interrupted or damaged capture are
trustworthy.  Readers verify digests and raise
:class:`~repro.core.faults.ChunkCorruptionError` naming the offending
file (strict mode), or skip-and-account the damage (degraded mode).

Archives lay columns out in :data:`repro.packet.COLUMNS` order.  The
serve path's wire chunks are the same archives as bytes
(:func:`packets_to_npz_bytes`); engine shard hosts decode them.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.faults import (
    ChunkCorruptionError,
    ChunkManifestError,
    NonFiniteTimestampError,
    atomic_write_bytes,
    atomic_write_json,
    sha256_hex,
)
from repro.packet import COLUMNS, PacketBatch

#: Format marker stored inside every archive.
_MAGIC = "repro-packetlog-v1"

#: Chunk-directory manifest filename and format marker.
MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_MAGIC = "repro-chunk-manifest-v1"

#: Values of ``on_corrupt``: fail fast, or skip-and-account.
CORRUPT_MODES = ("raise", "quarantine")


def _packets_npz_bytes(batch: PacketBatch) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        magic=np.array(_MAGIC),
        **{name: getattr(batch, name) for name in COLUMNS},
    )
    return buffer.getvalue()


def packets_to_npz_bytes(batch: PacketBatch) -> bytes:
    """Serialize a packet batch to npz archive bytes.

    The byte-level twin of :func:`save_packets_npz` — the same
    magic-tagged archive, returned instead of written.  This is the
    chunk-ingest wire format of the :mod:`repro.serve` service: clients
    POST exactly these bytes, so a chunk file written by
    ``save_packets_chunked`` can be replayed to a server verbatim.
    """
    return _packets_npz_bytes(batch)


def packets_from_npz_bytes(
    data: bytes, label: str = "<bytes>"
) -> PacketBatch:
    """Parse npz archive bytes back into a packet batch.

    Raises :class:`~repro.core.faults.ChunkCorruptionError` (with
    ``label`` in the message) on a truncated, altered, or mis-tagged
    payload, and its subclass
    :class:`~repro.core.faults.NonFiniteTimestampError` on a NaN or
    infinite timestamp — the server rejects such chunks without
    touching detector state.
    """
    return _parse_packets_npz(data, Path(label))


def save_packets_npz(batch: PacketBatch, path: Union[str, Path]) -> str:
    """Write a packet batch to a compressed ``.npz`` archive.

    The write is atomic (tmp + fsync + rename): an interrupted writer
    never leaves a truncated archive at ``path`` for a later
    :func:`load_packets_npz` to trip over.  Returns the archive's
    sha256 content digest (the value recorded in chunk manifests).
    """
    data = _packets_npz_bytes(batch)
    atomic_write_bytes(Path(path), data)
    return sha256_hex(data)


def _parse_packets_npz(data: bytes, path: Path) -> PacketBatch:
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            magic = str(archive["magic"])
            if magic != _MAGIC:
                raise ChunkCorruptionError(
                    f"not a repro packet log: {path} (magic={magic!r})"
                )
            batch = PacketBatch(**{name: archive[name] for name in COLUMNS})
    except ChunkCorruptionError:
        raise
    except Exception as exc:
        raise ChunkCorruptionError(
            f"corrupt packet chunk {path}: {type(exc).__name__}: {exc}"
        ) from exc
    if not bool(np.isfinite(batch.ts).all()):
        raise NonFiniteTimestampError(
            f"packet chunk {path} has non-finite timestamps"
        )
    return batch


def load_packets_npz(
    path: Union[str, Path], expected_digest: Optional[str] = None
) -> PacketBatch:
    """Read a packet batch written by :func:`save_packets_npz`.

    A truncated, altered, or otherwise unreadable archive raises
    :class:`~repro.core.faults.ChunkCorruptionError` with the offending
    path in the message; a missing file still raises
    ``FileNotFoundError``.  With ``expected_digest`` set (from a chunk
    manifest), the file's content digest is verified before parsing.
    """
    path = Path(path)
    data = path.read_bytes()
    if expected_digest is not None and sha256_hex(data) != expected_digest:
        raise ChunkCorruptionError(
            f"corrupt packet chunk {path}: content digest does not match "
            "the chunk manifest"
        )
    return _parse_packets_npz(data, path)


# ----------------------------------------------------------------------
# Chunked captures with a digest manifest
# ----------------------------------------------------------------------


class ChunkWriter:
    """Incremental, crash-consistent writer of a chunk directory.

    Construction writes an empty, incomplete ``MANIFEST.json`` before
    any chunk, so every chunk directory carries one.  Each :meth:`write`
    lands one ``chunk-<index>.npz`` atomically and then rewrites the
    manifest (also atomically) with the digests of everything written
    *so far* — so a writer dying between chunk N and N+1 leaves a
    directory whose manifest certifies exactly chunks 0..N.
    :meth:`close` marks the manifest complete.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        chunk_seconds: Optional[float] = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunk_seconds = chunk_seconds
        self.written = 0
        self._digests: List[str] = []
        self._write_manifest(complete=False)

    def write(self, batch: PacketBatch) -> Path:
        """Persist the next chunk and extend the manifest."""
        path = self.directory / f"chunk-{self.written:05d}.npz"
        digest = save_packets_npz(batch, path)
        self._digests.append(digest)
        self.written += 1
        self._write_manifest(complete=False)
        return path

    def close(self) -> int:
        """Finalize the manifest; returns the number of chunks written."""
        self._write_manifest(complete=True)
        return self.written

    def _write_manifest(self, complete: bool) -> None:
        manifest = {
            "magic": _MANIFEST_MAGIC,
            "chunk_seconds": self.chunk_seconds,
            "complete": complete,
            "chunks": {
                f"chunk-{index:05d}.npz": digest
                for index, digest in enumerate(self._digests)
            },
        }
        atomic_write_json(self.directory / MANIFEST_NAME, manifest)


def save_packets_chunked(
    batch: PacketBatch,
    directory: Union[str, Path],
    chunk_seconds: float,
) -> int:
    """Split a capture into per-window archives (hourly-pcap style).

    Writes ``chunk-00000.npz``, ``chunk-00001.npz``, ... into
    ``directory`` (created if missing), one per non-empty time window of
    ``chunk_seconds``, epoch-aligned, plus a ``MANIFEST.json`` of
    per-chunk content digests (updated after every chunk — see
    :class:`ChunkWriter`).  Filename order is time order, so the
    directory can be streamed back with :func:`iter_packets_chunked`
    without ever materializing the whole capture.

    Returns the number of chunk files written.
    """
    writer = ChunkWriter(directory, chunk_seconds)
    for _, _, chunk in batch.iter_time_chunks(chunk_seconds):
        if len(chunk) == 0:
            continue
        writer.write(chunk)
    return writer.close()


def load_manifest(directory: Union[str, Path]) -> dict:
    """The chunk directory's digest manifest.

    A missing manifest, or one that cannot be parsed, raises
    :class:`~repro.core.faults.ChunkManifestError` naming its path —
    without it the directory's integrity cannot be certified.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ChunkManifestError(
            f"missing chunk manifest {path}: the chunk archives cannot be "
            "verified"
        ) from exc
    except (ValueError, OSError) as exc:
        raise ChunkManifestError(
            f"corrupt chunk manifest {path}: {exc}"
        ) from exc
    if manifest.get("magic") != _MANIFEST_MAGIC:
        raise ChunkManifestError(
            f"corrupt chunk manifest {path}: unrecognized format marker "
            f"{manifest.get('magic')!r}"
        )
    return manifest


def chunk_paths(directory: Union[str, Path]) -> list:
    """The validated, time-ordered archive paths of a chunk directory.

    Raises immediately — with a message naming the problem — when the
    directory is missing, holds no ``chunk-*.npz`` archives, has a
    malformed chunk filename, or has a gap in the chunk sequence
    (``save_packets_chunked`` numbers chunks contiguously from 0, so a
    gap means part of the capture was lost or never copied).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a chunk directory: {directory}")
    paths = sorted(directory.glob("chunk-*.npz"))
    if not paths:
        raise ValueError(
            f"no chunk archives (chunk-*.npz) in {directory} — expected a "
            "directory written by save_packets_chunked()"
        )
    indices = []
    for path in paths:
        suffix = path.name[len("chunk-"):-len(".npz")]
        if not suffix.isdigit():
            raise ValueError(
                f"malformed chunk filename {path.name!r} in {directory} — "
                "expected chunk-<index>.npz"
            )
        indices.append(int(suffix))
    expected = list(range(len(paths)))
    if indices != expected:
        missing = sorted(set(range(max(indices) + 1)) - set(indices))
        raise ValueError(
            f"chunk sequence in {directory} has gaps: missing "
            f"{['chunk-%05d.npz' % i for i in missing]} — the capture "
            "cannot be streamed in order"
        )
    return paths


def iter_packets_verified(
    directory: Union[str, Path],
    on_corrupt: str = "raise",
) -> Iterator[Tuple[Path, Optional[PacketBatch]]]:
    """Yield ``(path, batch)`` per chunk, verifying against the manifest.

    Chunks listed in ``MANIFEST.json`` are digest-checked before
    parsing; chunks the manifest has not recorded (a writer died after
    the rename, before the manifest update) are accepted if they parse
    — the atomic rename guarantees a present archive is complete unless
    externally damaged.  A directory without a manifest is refused
    (:func:`load_manifest`) in either mode.

    ``on_corrupt="raise"`` (strict) propagates the first
    :class:`~repro.core.faults.ChunkCorruptionError`;
    ``on_corrupt="quarantine"`` (degraded) yields ``(path, None)`` for
    each damaged chunk so callers can account the loss and continue.
    """
    if on_corrupt not in CORRUPT_MODES:
        raise ValueError(
            f"on_corrupt must be one of {CORRUPT_MODES}, got {on_corrupt!r}"
        )
    paths = chunk_paths(directory)
    digests = load_manifest(directory)["chunks"]
    for path in paths:
        try:
            yield path, load_packets_npz(path, digests.get(path.name))
        except ChunkCorruptionError:
            if on_corrupt == "raise":
                raise
            yield path, None


def verify_chunks(
    directory: Union[str, Path]
) -> Tuple[List[Path], List[Path]]:
    """Audit a chunk directory: ``(valid_paths, corrupt_paths)``.

    Every chunk is digest-checked against the manifest (or parsed, for
    unlisted chunks); nothing is raised for a damaged chunk — this is
    the reporting surface for "which chunks of this interrupted capture
    survive".
    """
    valid: List[Path] = []
    corrupt: List[Path] = []
    for path, batch in iter_packets_verified(directory, "quarantine"):
        (corrupt if batch is None else valid).append(path)
    return valid, corrupt


def iter_packets_chunked(
    directory: Union[str, Path],
    on_corrupt: str = "raise",
    health=None,
):
    """Yield the chunks of :func:`save_packets_chunked` in time order.

    Loads one archive at a time — the memory profile of the streaming
    pipeline over an on-disk capture is one chunk plus detector state.
    The directory is validated via :func:`chunk_paths` before the first
    chunk is yielded, and every chunk is verified against the digest
    manifest.  In degraded mode (``on_corrupt="quarantine"``) damaged
    chunks are skipped and recorded on ``health``
    (:class:`~repro.core.telemetry.RunHealth`) instead of raising.
    """
    for path, batch in iter_packets_verified(directory, on_corrupt):
        if batch is None:
            if health is not None:
                health.record_quarantine(str(path))
            continue
        yield batch
