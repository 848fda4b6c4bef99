"""Fault tests for the snapshot commit protocol (repro.core.engine).

A snapshot is one state file per shard, written by whoever holds the
shard (the inline ``ShardHost`` or a fold-pool worker), plus one small
manifest whose rename commits them.  On the tiny scenario, with a
2-shard tenant folding inline and through a fold pool:

* a manifest rename that fails after the shard files were written
  leaves the previous snapshot committed; a reboot restores it, replays
  the journal and answers exactly ``detect_all(build_events(capture))``,
  and the uncommitted files are ignored, then removed by the next
  commit;
* a manifest that names a torn or missing shard file is refused whole,
  with a typed error counted on the tenant's health;
* a directory holding only a pre-manifest ``engine-00000.ckpt`` is
  refused by name, and the tenant rebuilds from its journal;
* commits leave exactly one generation of shard files;
* the directory is fsynced after the manifest rename and before any
  journal segment is unlinked;
* a shard write that fails is an ``OSError`` of the snapshot, pooled as
  inline: nothing is committed and the live state is kept;
* a commit whose directory fsync fails still claims its generation's
  file names;
* a respawned fold worker that lost its shards refuses to write them,
  so no empty shard is committed and no journal segment is dropped.
"""

import errno
import json
import os
import signal
import stat
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import engine as engine_module
from repro.core.detection import detect_all
from repro.core.engine import (
    LEGACY_SNAPSHOT_NAME,
    MANIFEST_NAME,
    DetectionEngine,
    SnapshotError,
)
from repro.core.events import build_events
from repro.core.faults import CheckpointStore
from repro.io.packetlog import packets_to_npz_bytes
from repro.packet import PacketBatch
from repro.scanners.lazy import emit_chunks
from repro.serve.foldpool import FoldPool, FoldPoolError
from repro.serve.journal import JOURNAL_DIR_NAME
from repro.serve.tenants import TenantConfig, TenantRegistry
from repro.sim.runner import _build_world_base
from repro.sim.scenario import tiny_scenario

_TENANT = "t"


@pytest.fixture(scope="module")
def world():
    """The tiny capture as hourly wire chunks, a 2-shard tenant config
    and the offline answer over the whole capture."""
    scenario = tiny_scenario()
    _, telescope, population, _, _, timeout = _build_world_base(scenario)
    chunks = [
        chunk.packets
        for chunk in emit_chunks(
            population.scanners, telescope.view(), 3_600.0,
            scenario.window(),
        )
    ]
    day = scenario.clock.seconds_per_day
    expected = detect_all(
        build_events(PacketBatch.concat(chunks), timeout),
        telescope.size,
        scenario.detection,
        day,
    )
    return SimpleNamespace(
        payloads=[packets_to_npz_bytes(chunk) for chunk in chunks],
        config=TenantConfig(
            timeout=timeout,
            dark_size=telescope.size,
            day_seconds=day,
            workers=2,
            detection=scenario.detection,
            snapshot_every_chunks=None,
        ),
        expected=expected,
    )


@pytest.fixture(scope="module")
def fold_pool():
    with FoldPool(2) as pool:
        yield pool


@pytest.fixture(params=["inline", "pooled"])
def pool(request):
    if request.param == "inline":
        return None
    return request.getfixturevalue("fold_pool")


def _registry(root, pool):
    registry = TenantRegistry(root)
    if pool is not None:
        registry.attach_pool(pool)
    return registry


def _feed(tenant, payloads):
    """The durable serve path: journal each chunk, then fold it."""
    for payload in payloads:
        seq, duplicate = tenant.accept_chunk(payload)
        if not duplicate:
            tenant.ingest_payloads([payload], last_seq=seq)


def _manifest(root):
    return json.loads((root / _TENANT / MANIFEST_NAME).read_text())


def _named(manifest):
    return {entry["name"] for entry in manifest["shards"]}


def _shard_files(root):
    return {path.name for path in (root / _TENANT).glob("shard-*.state")}


def _reboot(root, pool):
    """A fresh registry over ``root`` (the crashed one is abandoned)."""
    registry = _registry(root, pool)
    assert registry.restore_all() == [_TENANT]
    return registry.get(_TENANT)


def _assert_offline_answer(tenant, expected):
    got = tenant.query()
    for definition in (1, 2, 3):
        assert got.ah_sources(definition) == expected[definition].sources
        assert got.detections[definition].threshold == (
            expected[definition].threshold
        )


def test_failed_manifest_rename_keeps_previous_snapshot(
    tmp_path, world, pool, monkeypatch
):
    tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
    half = len(world.payloads) // 2
    _feed(tenant, world.payloads[:half])
    tenant.save_snapshot()
    committed = _manifest(tmp_path)
    _feed(tenant, world.payloads[half:])

    real_replace = os.replace

    def replace_failing_manifest(src, dst):
        if Path(dst).name == MANIFEST_NAME:
            raise OSError(errno.EIO, "injected manifest rename failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_failing_manifest)
    with pytest.raises(OSError, match="injected"):
        tenant.save_snapshot()
    monkeypatch.undo()
    assert _manifest(tmp_path) == committed
    orphans = _shard_files(tmp_path) - _named(committed)
    assert len(orphans) == 2  # written, never committed

    after = _reboot(tmp_path, pool)
    # The committed snapshot loaded and only its journal suffix was
    # re-folded; the orphans were never read.
    assert after.serve_stats.replayed_chunks == len(world.payloads) - half
    assert after.telemetry.health.checkpoint_corrupt == 0
    _assert_offline_answer(after, world.expected)
    # Replay committed a new snapshot: one generation is left.
    manifest = _manifest(tmp_path)
    assert manifest["generation"] == committed["generation"] + 1
    assert _shard_files(tmp_path) == _named(manifest)


@pytest.mark.parametrize("damage", ["missing", "torn", "mismatched"])
def test_damaged_shard_file_refused_whole(tmp_path, world, pool, damage):
    tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
    _feed(tenant, world.payloads)
    tenant.save_snapshot()  # covers, and truncates, the whole journal
    name = _manifest(tmp_path)["shards"][1]["name"]
    shard = tmp_path / _TENANT / name
    data = bytearray(shard.read_bytes())
    if damage == "missing":
        shard.unlink()
    elif damage == "torn":
        shard.write_bytes(bytes(data[: len(data) // 2]))
    else:  # same length, one byte of the JSON header flipped
        data[len(b"repro-detector-state-v4\n") + 10] ^= 0x01
        shard.write_bytes(bytes(data))

    with pytest.raises(SnapshotError, match=name):
        DetectionEngine.from_store(CheckpointStore(tmp_path / _TENANT))

    after = _reboot(tmp_path, pool)
    assert after.telemetry.health.checkpoint_corrupt == 1
    assert any(
        "snapshot refused" in error and name in error
        for error in after.errors
    )
    # Shard 0's file was intact, yet nothing of the snapshot loaded.
    assert after.engine.packets_seen == 0
    if pool is not None:
        reads = [((_TENANT, 0), 0), ((_TENANT, 1), 0)]
        assert pool.collect(reads) == [None, None]


def test_legacy_single_file_snapshot_refused_by_name(tmp_path, world, pool):
    tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
    _feed(tenant, world.payloads)  # journaled, never snapshotted
    legacy = CheckpointStore(tmp_path / _TENANT)
    legacy.save("engine", 0, b"repro-engine-state-v4\n" + bytes(64))
    assert legacy.path_for("engine", 0).name == LEGACY_SNAPSHOT_NAME

    with pytest.raises(SnapshotError, match=LEGACY_SNAPSHOT_NAME):
        DetectionEngine.from_store(legacy)

    after = _reboot(tmp_path, pool)
    assert after.telemetry.health.checkpoint_corrupt == 1
    assert any(LEGACY_SNAPSHOT_NAME in error for error in after.errors)
    # Restarted empty, then rebuilt from the whole journal.
    assert after.serve_stats.replayed_chunks == len(world.payloads)
    _assert_offline_answer(after, world.expected)


def test_commits_keep_one_generation(tmp_path, world, pool):
    tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
    step = -(-len(world.payloads) // 5)
    for start in range(0, len(world.payloads), step):
        _feed(tenant, world.payloads[start:start + step])
        tenant.save_snapshot()
    manifest = _manifest(tmp_path)
    assert manifest["generation"] == 5
    entries = {
        path.name
        for path in (tmp_path / _TENANT).iterdir()
        if path.name != JOURNAL_DIR_NAME
    }
    assert entries == {MANIFEST_NAME} | _named(manifest)
    assert all(name.startswith("shard-00000005-") for name in _named(manifest))
    _assert_offline_answer(_reboot(tmp_path, pool), world.expected)


def test_directory_fsynced_after_manifest_rename_before_journal_unlink(
    tmp_path, world, monkeypatch
):
    tenant = _registry(tmp_path, None).create(_TENANT, world.config)
    _feed(tenant, world.payloads)
    calls = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

    def fsync(fd):
        kind = "fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync"
        calls.append((kind, os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def replace_(src, dst):
        calls.append(("replace", str(dst)))
        real_replace(src, dst)

    def unlink(path, missing_ok=False):
        calls.append(("unlink", str(path)))
        real_unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace_)
    monkeypatch.setattr(Path, "unlink", unlink)
    tenant.save_snapshot()
    monkeypatch.undo()

    directory = str(tmp_path / _TENANT)
    manifest = _manifest(tmp_path)
    names = [call[1] for call in calls]
    renamed = {Path(name).name: i for i, name in enumerate(names)}
    commit = names.index(str(tmp_path / _TENANT / MANIFEST_NAME))
    for shard in _named(manifest):
        # Each shard file is fsynced (under its tmp name) before its
        # rename, and renamed before the manifest.
        synced = [
            i for i, (kind, name) in enumerate(calls)
            if kind == "fsync" and Path(name).name.startswith(f".{shard}.")
        ]
        assert synced and synced[0] < renamed[shard] < commit
    dir_sync = calls.index(("fsync-dir", directory))
    assert commit < dir_sync
    journal = str(tmp_path / _TENANT / JOURNAL_DIR_NAME)
    dropped = [
        i for i, (kind, name) in enumerate(calls)
        if kind == "unlink" and name.startswith(journal)
    ]
    assert dropped and dir_sync < min(dropped)


def test_failed_shard_write_keeps_live_state(tmp_path, world, pool):
    tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
    third = len(world.payloads) // 3
    _feed(tenant, world.payloads[:third])
    tenant.save_snapshot()
    committed = _manifest(tmp_path)
    _feed(tenant, world.payloads[third:2 * third])
    # A directory in the way of shard 1's next file fails its rename
    # in whichever host writes it, as a full disk or EIO would.
    obstacle = tmp_path / _TENANT / "shard-00000002-001.state"
    obstacle.mkdir()
    packets = tenant.engine.packets_seen

    with pytest.raises(IsADirectoryError):
        tenant.save_snapshot()
    assert _manifest(tmp_path) == committed
    assert tenant.engine.snapshot_seq == committed["last_seq"]
    assert tenant.engine.packets_seen == packets
    assert tenant.recycles == 0

    # The tenant keeps ingesting on its live state; once the fault
    # clears, the next commit covers everything.
    _feed(tenant, world.payloads[2 * third:])
    _assert_offline_answer(tenant, world.expected)
    obstacle.rmdir()
    tenant.save_snapshot()
    manifest = _manifest(tmp_path)
    assert manifest["generation"] == committed["generation"] + 1
    assert _shard_files(tmp_path) == _named(manifest)
    _assert_offline_answer(_reboot(tmp_path, pool), world.expected)


def test_failed_directory_fsync_still_claims_the_generation(
    tmp_path, world, pool, monkeypatch
):
    tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
    half = len(world.payloads) // 2
    _feed(tenant, world.payloads[:half])
    tenant.save_snapshot()

    def fsync_failing(path):
        raise OSError(errno.EIO, "injected directory fsync failure")

    monkeypatch.setattr(engine_module, "fsync_directory", fsync_failing)
    with pytest.raises(OSError, match="injected"):
        tenant.save_snapshot()
    monkeypatch.undo()
    # The manifest rename landed before the fsync failed: generation 2
    # is what a reboot would load, so its file names are taken.
    landed = _manifest(tmp_path)
    assert landed["generation"] == 2

    _feed(tenant, world.payloads[half:])
    tenant.save_snapshot()
    manifest = _manifest(tmp_path)
    assert manifest["generation"] == 3
    assert not _named(manifest) & _named(landed)
    assert _shard_files(tmp_path) == _named(manifest)
    _assert_offline_answer(_reboot(tmp_path, pool), world.expected)


def test_respawned_worker_refuses_to_write_lost_shards(tmp_path, world):
    with FoldPool(1) as pool:
        tenant = _registry(tmp_path, pool).create(_TENANT, world.config)
        half = len(world.payloads) // 2
        _feed(tenant, world.payloads[:half])
        tenant.save_snapshot()
        committed = _manifest(tmp_path)
        _feed(tenant, world.payloads[half:])
        journal = tmp_path / _TENANT / JOURNAL_DIR_NAME
        segments = sorted(journal.iterdir())

        os.kill(pool._workers[0].process.pid, signal.SIGKILL)
        with pytest.raises(FoldPoolError):
            pool.ping()  # finds the dead worker and respawns it empty
        with pytest.raises(FoldPoolError, match="out of sync"):
            tenant.save_snapshot()
        # No empty shard was committed under the live last_seq, and the
        # journal still holds every chunk since the committed snapshot.
        assert _manifest(tmp_path) == committed
        assert _shard_files(tmp_path) == _named(committed)
        assert tenant.engine.snapshot_seq == committed["last_seq"]
        assert sorted(journal.iterdir()) == segments

        # The server's heal path restores the snapshot and replays.
        tenant.restore_from_store()
        assert tenant.serve_stats.replayed_chunks == len(world.payloads) - half
        _assert_offline_answer(tenant, world.expected)
