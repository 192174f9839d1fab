"""Unit tests for the RunConfig value and the on-disk RunStore.

Checkpoint chains, manifests, digests, atomic writes, and the
hash-keyed store layout — everything below the full resume tests in
:mod:`tests.store.test_resume`.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunConfig
from repro.core.campaign import CampaignConfig
from repro.errors import SimulationError
from repro.exec.shardworld import WorldSpec
from repro.internet.population import PopulationConfig
from repro.simulation import Simulation
from repro.store import CampaignAborted, RunStore, StoreError
from repro.store.runstore import _atomic_write

from ..exec.test_determinism import canonicalize

SCALE = 0.002
SEED = 5


class TestRunConfig:
    def test_json_round_trip(self):
        config = RunConfig(
            scale=0.004, seed=7, executor="sharded", workers=3, trace=True
        )
        clone = RunConfig.from_json(config.to_json())
        assert clone == config
        assert clone.content_hash() == config.content_hash()

    def test_round_trip_with_explicit_subconfigs(self):
        config = RunConfig(
            scale=0.004,
            seed=7,
            population=PopulationConfig(scale=0.004, seed=7),
            campaign=CampaignConfig(),
        )
        clone = RunConfig.from_json(config.to_json())
        assert clone == config

    def test_runtime_fields_do_not_change_the_hash(self):
        base = RunConfig(scale=0.004, seed=7)
        for runtime in (
            RunConfig(scale=0.004, seed=7, executor="process", workers=8),
            RunConfig(scale=0.004, seed=7, executor="serial", trace=True),
        ):
            assert runtime.content_hash() == base.content_hash()

    def test_semantic_fields_change_the_hash(self):
        base = RunConfig(scale=0.004, seed=7)
        assert RunConfig(scale=0.005, seed=7).content_hash() != base.content_hash()
        assert RunConfig(scale=0.004, seed=8).content_hash() != base.content_hash()

    def test_explicit_population_hashes_like_the_derived_default(self):
        base = RunConfig(scale=0.004, seed=7)
        explicit = RunConfig(
            scale=0.004, seed=7, population=PopulationConfig(scale=0.004, seed=7)
        )
        assert explicit.content_hash() == base.content_hash()

    def test_unknown_executor_rejected(self):
        with pytest.raises(SimulationError, match="executor"):
            RunConfig(executor="quantum")


class TestWorldSpecShim:
    def test_returns_runconfig_and_warns(self):
        population = PopulationConfig(scale=0.004, seed=SEED)
        campaign = CampaignConfig()
        with pytest.warns(DeprecationWarning, match="WorldSpec is deprecated"):
            spec = WorldSpec(population, campaign, SEED)
        assert isinstance(spec, RunConfig)
        assert spec.population == population
        assert spec.campaign == campaign
        assert spec.seed == SEED
        assert spec.scale == population.scale


@pytest.fixture(scope="module")
def aborted(tmp_path_factory):
    """A run checkpointed into a store and aborted after round 1."""
    root = tmp_path_factory.mktemp("store")
    config = RunConfig(scale=SCALE, seed=SEED, executor="serial")
    store = RunStore(str(root))
    store.abort_after_round = 1
    sim = Simulation.build(config=config)
    with pytest.raises(CampaignAborted):
        sim.run(store=store)
    store.abort_after_round = None
    return SimpleNamespace(store=store, config=config, root=root)


def _copy_store(aborted, tmp_path):
    copy = tmp_path / "store"
    shutil.copytree(aborted.root, copy)
    return RunStore(str(copy)), copy


class TestStoreLayout:
    def test_run_directory_keyed_by_config_hash(self, aborted):
        run_id = f"run-{aborted.config.content_hash()[:8]}"
        assert aborted.store.runs() == [run_id]
        run_dir = aborted.root / run_id
        assert (run_dir / "config.json").is_file()
        stored = RunConfig.from_json((run_dir / "config.json").read_text())
        assert stored == aborted.config

    def test_manifest_indexes_the_chain_with_digests(self, aborted):
        run_dir = aborted.root / aborted.store.runs()[0]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == aborted.config.content_hash()
        entries = manifest["checkpoints"]
        assert [e["kind"] for e in entries] == ["initial", "round"]
        assert [e["rounds_completed"] for e in entries] == [0, 1]
        for entry in entries:
            data = (run_dir / entry["file"]).read_bytes()
            assert len(data) == entry["size"]
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_no_temp_files_left_behind(self, aborted):
        run_dir = aborted.root / aborted.store.runs()[0]
        assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]

    def test_load_latest_empty_store(self, tmp_path):
        with pytest.raises(StoreError, match="no checkpointed runs"):
            RunStore(str(tmp_path / "empty")).load_latest()

    def test_load_latest_hash_mismatch_lists_candidates(self, aborted):
        other = RunConfig(scale=0.003, seed=6)
        with pytest.raises(StoreError, match=r"no stored run matches.*holds: run-"):
            aborted.store.load_latest(config_hash=other.content_hash())

    def test_load_latest_matching_hash(self, aborted):
        state = aborted.store.load_latest(
            config_hash=aborted.config.content_hash()
        )
        assert state.checkpoint.kind == "round"
        assert len(state.checkpoint.rounds) == 1
        assert state.config == aborted.config

    def test_missing_checkpoint_file_truncates_the_chain(self, aborted, tmp_path):
        store, copy = _copy_store(aborted, tmp_path)
        run_id = store.runs()[0]
        os.remove(copy / run_id / "checkpoint-0001.pkl")
        state = store.load_latest()
        assert state.checkpoint.kind == "initial"
        assert len(state.entries) == 1

    def test_all_checkpoints_torn_is_an_error(self, aborted, tmp_path):
        store, copy = _copy_store(aborted, tmp_path)
        run_id = store.runs()[0]
        for name in ("checkpoint-0000.pkl", "checkpoint-0001.pkl"):
            (copy / run_id / name).write_bytes(b"torn")
        with pytest.raises(StoreError, match="no usable checkpoint"):
            store.load_latest()


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "file.bin"
        _atomic_write(str(target), b"one")
        _atomic_write(str(target), b"two")
        assert target.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["file.bin"]


class TestWriter:
    def test_requires_config_built_simulation(self, tmp_path):
        store = RunStore(str(tmp_path / "s"))
        sim = Simulation.build(config=RunConfig(scale=SCALE, seed=SEED))
        sim.config = None
        with pytest.raises(StoreError, match="RunConfig"):
            store.writer(sim)

    def test_fresh_run_replaces_a_previous_attempt(self, aborted, tmp_path):
        store, _ = _copy_store(aborted, tmp_path)
        sim = Simulation.build(config=aborted.config)
        sim.run(store=store)
        state = store.load_latest()
        assert state.checkpoint.kind == "round"
        assert len(state.checkpoint.rounds) == len(sim.result.rounds)
        # initial + one entry per round, freshly renumbered from zero
        assert len(state.entries) == len(sim.result.rounds) + 1


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A run aborted after round 3 (four files), plus its uninterrupted
    reference result."""
    root = tmp_path_factory.mktemp("chain")
    config = RunConfig(scale=SCALE, seed=SEED, executor="serial")
    store = RunStore(str(root))
    store.abort_after_round = 3
    with pytest.raises(CampaignAborted):
        Simulation.build(config=config).run(store=store)
    store.abort_after_round = None
    reference = Simulation.build(config=config).run()
    return SimpleNamespace(
        root=root,
        run_dir=root / store.runs()[0],
        reference=repr(canonicalize(reference)).encode(),
    )


class TestDeltaChain:
    def test_round_files_are_small_deltas(self, chain):
        manifest = json.loads((chain.run_dir / "manifest.json").read_text())
        sizes = [entry["size"] for entry in manifest["checkpoints"]]
        assert len(sizes) == 4
        base, rounds = sizes[0], sizes[1:]
        assert all(size <= base / 5 for size in rounds), sizes

    def test_mid_chain_hole_ends_the_chain(self, chain, tmp_path):
        copy_root = tmp_path / "store"
        shutil.copytree(chain.root, copy_root)
        store = RunStore(str(copy_root))
        hole = copy_root / store.runs()[0] / "checkpoint-0001.pkl"
        data = bytearray(hole.read_bytes())
        data[len(data) // 2] ^= 0xFF
        hole.write_bytes(bytes(data))

        state = store.load_latest()
        # Files 2 and 3 are intact, but no delta applies past the hole.
        assert state.checkpoint.kind == "initial"
        assert state.checkpoint.rounds == []
        assert len(state.entries) == 1

        resumed = Simulation.resume(state)
        result = resumed.run(store=store)
        assert repr(canonicalize(result)).encode() == chain.reference
        # The resumed writer rewrote the chain from the hole onwards.
        finished = store.load_latest()
        assert len(finished.checkpoint.rounds) == len(result.rounds)


def _rewrite_manifest(run_dir, mutate):
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


class TestManifestValidation:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda m: m.update(checkpoints=[{}]), "checkpoint entry 0"),
            (lambda m: m.pop("config"), "'config'"),
            (lambda m: m.update(config={"scale": "abc"}), "does not decode"),
            (lambda m: m.update(checkpoints=5), "'checkpoints'"),
            (
                lambda m: m["checkpoints"][1].update(file="../checkpoint-0001.pkl"),
                "names file",
            ),
            (lambda m: m["config"].update(seed=SEED + 1), "config hash"),
        ],
    )
    def test_malformed_manifest_raises_store_error(
        self, aborted, tmp_path, mutate, message
    ):
        store, copy_root = _copy_store(aborted, tmp_path)
        _rewrite_manifest(copy_root / store.runs()[0], mutate)
        with pytest.raises(StoreError, match=message):
            store.load_latest()

    def test_old_checkpoint_format_is_refused(self, aborted, tmp_path):
        store, copy_root = _copy_store(aborted, tmp_path)
        _rewrite_manifest(
            copy_root / store.runs()[0],
            lambda m: m.update(checkpoint_version=1),
        )
        with pytest.raises(StoreError, match=r"v1.*reads only v2.*re-run"):
            store.load_latest()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys/indices."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_store(aborted, tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz") / "store"
    shutil.copytree(aborted.root, root)
    store = RunStore(str(root))
    run_dir = root / store.runs()[0]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return SimpleNamespace(
        store=store, run_dir=run_dir, manifest=manifest,
        paths=sorted(_paths(manifest), key=repr),
    )


class TestManifestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_mutation_loads_or_raises_store_error(self, fuzz_store, data):
        manifest = copy.deepcopy(fuzz_store.manifest)
        path = data.draw(st.sampled_from(fuzz_store.paths), label="path")
        if not path:
            manifest = data.draw(_JSON, label="manifest")
        else:
            parent = manifest
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(_JSON, label="value")
        (fuzz_store.run_dir / "manifest.json").write_text(json.dumps(manifest))
        try:
            state = fuzz_store.store.load_latest()
        except StoreError:
            return
        assert state.entries
