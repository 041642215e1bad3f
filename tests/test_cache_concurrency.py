"""Concurrent multi-process safety of the on-disk characterization cache.

The serving layer's worker pool (and independent CLI runs sharing one
``REPRO_CACHE_DIR``) write the same tree concurrently. These tests pin
the two guarantees that make that safe:

* **atomic stores** — a reader racing any number of writers never sees
  a torn entry: every load returns None or a schema-valid entry, and no
  corrupt-quarantine recovery is ever triggered;
* **merge-on-store** — two processes extending the *same key* with
  different scenarios leave a valid entry whose aged values are correct
  for whichever writes survived the race.
"""

import json
import multiprocessing

from repro.core.cache import (CACHE_SCHEMA, CharacterizationCache,
                              shard_index)

KEY = "deadbeefcafef00d" * 4
OTHER_KEY = "5eedfacebead1234" * 4

METRICS = {"delay_ps": 100.0, "area_um2": 2.0, "leakage_nw": 3.0,
           "gates": 4, "depth": 5}

ROUNDS = 150


def _store_worker(root, label, barrier, shards, stored=None, reading=None):
    """Repeatedly extend KEY with this writer's scenario fingerprints.

    With the *stored* / *reading* events, pause after the first store
    until the reader has seen it (bounded), so the reader's loads
    overlap the remaining stores."""
    cache = CharacterizationCache(root, shards=shards)
    barrier.wait()
    for index in range(ROUNDS):
        fingerprint = "fp_%s_%02d" % (label, index % 8)
        cache.store(KEY, METRICS,
                    {fingerprint: {"label": label,
                                   "delay_ps": float(index % 8)}})
        if index == 0 and stored is not None:
            stored.set()
            reading.wait(timeout=10)


def _load_worker(root, barrier, queue, stored, reading):
    """Hammer load() against a concurrent writer; report anomalies.

    Starts once the writer's first store is visible (bounded wait) and
    releases the writer, so the loads overlap the remaining stores."""
    cache = CharacterizationCache(root, mem_entries=0)
    barrier.wait()
    stored.wait(timeout=10)
    reading.set()
    torn = 0
    seen = 0
    for __ in range(ROUNDS * 4):
        entry = cache.load(KEY)
        if entry is None:
            continue
        seen += 1
        if (entry.get("schema") != CACHE_SCHEMA
                or entry.get("metrics") != METRICS
                or not isinstance(entry.get("aged"), dict)):
            torn += 1
    queue.put({"torn": torn, "seen": seen, "errors": cache.stats.errors})


def _run_processes(targets):
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(len(targets))
    processes = [context.Process(target=target, args=args + (barrier,)
                                 + extra)
                 for target, args, extra in targets]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0
    return processes


class TestConcurrentWriters:
    def test_two_writers_same_key_never_torn(self, tmp_path):
        root = str(tmp_path)
        _run_processes([
            (_store_worker, (root, "alpha"), (0,)),
            (_store_worker, (root, "beta"), (0,)),
        ])
        cache = CharacterizationCache(root)
        entry = cache.load(KEY)
        assert entry is not None
        assert cache.stats.errors == 0
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["metrics"] == METRICS
        # Every surviving aged record is internally consistent with the
        # writer that produced it (value == index encoded in the name).
        assert entry["aged"]
        for fingerprint, record in entry["aged"].items():
            label, index = fingerprint.split("_")[1:]
            assert record["label"] == label
            assert record["delay_ps"] == float(int(index))
        # The losing half of a peek/replace race is dropped whole, never
        # interleaved: on-disk JSON parses and no temp files leak.
        leftovers = [p for p in tmp_path.rglob("*")
                     if p.is_file() and not p.name.endswith(".json")]
        assert leftovers == []

    def test_reader_never_sees_torn_entries(self, tmp_path):
        root = str(tmp_path)
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        stored, reading = context.Event(), context.Event()
        _run_processes([
            (_store_worker, (root, "alpha"), (0, stored, reading)),
            (_load_worker, (root,), (queue, stored, reading)),
        ])
        report = queue.get(timeout=10)
        assert report["torn"] == 0
        assert report["errors"] == 0
        # The reader overlapped the writer enough to matter.
        assert report["seen"] > 0

    def test_sharded_writers_spread_and_agree(self, tmp_path):
        root = str(tmp_path)
        shards = 4
        _run_processes([
            (_store_worker, (root, "alpha"), (shards,)),
            (_store_worker, (root, "beta"), (shards,)),
        ])
        expected_dir = tmp_path / ("shard-%02d" % shard_index(KEY, shards))
        files = list(expected_dir.rglob("*.json"))
        assert len(files) == 1
        entry = json.loads(files[0].read_text())
        assert entry["schema"] == CACHE_SCHEMA
        cache = CharacterizationCache(root, shards=shards)
        assert cache.load(KEY) is not None
        # An unsharded view of the same root does not see sharded keys:
        # shard layout is part of the cache configuration.
        assert CharacterizationCache(root).load(KEY) is None

    def test_distinct_keys_land_in_distinct_shards(self, tmp_path):
        cache = CharacterizationCache(str(tmp_path), shards=16)
        cache.store(KEY, METRICS, {"fp": {"label": "a", "delay_ps": 1.0}})
        cache.store(OTHER_KEY, METRICS,
                    {"fp": {"label": "b", "delay_ps": 2.0}})
        dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert dirs == sorted({"shard-%02d" % shard_index(KEY, 16),
                               "shard-%02d" % shard_index(OTHER_KEY, 16)})
        assert cache.load(KEY)["aged"]["fp"]["delay_ps"] == 1.0
        assert cache.load(OTHER_KEY)["aged"]["fp"]["delay_ps"] == 2.0
