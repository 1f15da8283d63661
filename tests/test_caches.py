from __future__ import annotations

import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, rule, run_state_machine_as_test

from specroute import caches, core
from specroute.caches import (
    CacheOwner,
    ContiguityError,
    IntegrityError,
    KVCache,
    KVEntry,
    SnapshotMismatchError,
    decode_restore,
    decode_snapshot,
)
from specroute.core import (
    LatentBlock,
    Producer,
    PromptSpec,
    block_digest,
    default_config,
)
from specroute.engine import run_arms_detailed, run_video_detailed
from specroute.router import AlwaysRejectPolicy, ThresholdPolicy
from specroute.sweep import SweepSpec
from specroute.synthmodels import SynthDecodeState, SyntheticDecoder, build_synthetic_stack


def make_block(index: int, producer: Producer = Producer.DRAFT, fill: float = 0.0) -> LatentBlock:
    data = np.full((3, 4, 8, 8), fill)
    return LatentBlock(index, data, producer, noise_seed=index + 1)


def forged(entry: KVEntry) -> KVEntry:
    return dataclasses.replace(entry, digest="0" * len(entry.digest))


def count_digests(monkeypatch):
    """Record every block hash from now on; returns the list of (site, block) it fills.

    A block is hashed at two sites: "built" when LatentBlock is constructed
    (through core.block_digest), and "cache" when a KVCache re-hashes an
    entry (through caches.block_digest).
    """
    hashes = []
    for site, module in (("built", core), ("cache", caches)):

        def counting(block, site=site):
            hashes.append((site, block))
            return block_digest(block)

        monkeypatch.setattr(module, "block_digest", counting)
    return hashes


def sites(hashes) -> Counter:
    return Counter(site for site, _ in hashes)


class TestKVCache:
    def test_commit_to_empty(self):
        cache = KVCache(CacheOwner.DRAFTER)
        cache.commit(make_block(0))
        assert len(cache) == 1

    def test_commit_keeps_prior_digest(self):
        cache = KVCache(CacheOwner.DRAFTER)
        cache.commit(make_block(0))
        first_digest = cache.digests()[0]
        cache.commit(make_block(1, fill=2.0))
        assert len(cache) == 2
        assert cache.digests()[0] == first_digest

    def test_non_contiguous_commit_fails(self):
        cache = KVCache(CacheOwner.TARGET)
        cache.commit(make_block(0))
        with pytest.raises(ContiguityError):
            cache.commit(make_block(2))

    def test_first_commit_must_be_block_zero(self):
        cache = KVCache(CacheOwner.TARGET)
        with pytest.raises(ContiguityError):
            cache.commit(make_block(1))

    def test_replay_reconstructs_equal_cache(self):
        cache = KVCache(CacheOwner.TARGET)
        for i in range(5):
            cache.commit(make_block(i, fill=float(i)))
        rebuilt = cache.replay()
        assert rebuilt == cache
        assert rebuilt.digests() == cache.digests()
        assert [e.producer for e in rebuilt.entries] == [e.producer for e in cache.entries]

    def test_committed_payloads_refuse_writes(self):
        cache = KVCache(CacheOwner.DRAFTER)
        cache.commit(make_block(0))
        fork = cache.fork()
        fork.commit(make_block(1, fill=1.0))
        before = cache.digests(), fork.digests()
        for entry in (cache.entries[0], fork.entries[0], fork.entries[1]):
            data = entry.block.data
            for array in (data, data.base):
                with pytest.raises(ValueError):
                    array.setflags(write=True)
            with pytest.raises(ValueError):
                data[0, 0, 0, 0] = 99.0
        cache.verify_integrity()
        fork.verify_integrity()
        assert (cache.digests(), fork.digests()) == before

    def test_fork_is_equal_and_independent(self):
        cache = KVCache(CacheOwner.TARGET)
        for i in range(3):
            cache.commit(make_block(i, fill=float(i)))
        fork = cache.fork()
        assert fork == cache and fork is not cache
        assert [e.producer for e in fork.entries] == [e.producer for e in cache.entries]
        cache.commit(make_block(3, Producer.DRAFT, fill=1.0))
        fork.commit(make_block(3, Producer.TARGET, fill=2.0))
        assert len(cache) == len(fork) == 4
        assert cache.digests()[:3] == fork.digests()[:3]
        assert cache.digests()[3] != fork.digests()[3]
        assert cache.entries[3].producer is Producer.DRAFT
        assert fork.entries[3].producer is Producer.TARGET

    def test_forged_digest_raises_integrity_error(self, stack, calibration, config):
        cache = KVCache(CacheOwner.TARGET)
        for i in range(3):
            cache.commit(make_block(i, fill=float(i)))
        fork = cache.fork()
        fork._entries[1] = forged(fork._entries[1])
        cache.verify_integrity()
        with pytest.raises(IntegrityError, match="entry 1"):
            fork.verify_integrity()
        with pytest.raises(IntegrityError, match="entry 1"):
            fork.replay()

        class Forging:
            """Forges entry 0 of the cache it is given before generating the last block."""

            def __init__(self, inner):
                self.inner = inner

            def generate(self, noise_seed, kv, block_index, prompt):
                if block_index == config.num_blocks - 1:
                    kv._entries[0] = forged(kv._entries[0])
                return self.inner.generate(noise_seed, kv, block_index, prompt)

        for drafter, target, owner in (
            (Forging(stack.drafter), stack.target, "drafter"),
            (stack.drafter, Forging(stack.target), "target"),
        ):
            with pytest.raises(IntegrityError, match=f"{owner} cache entry 0"):
                run_video_detailed(
                    config, PromptSpec("p0"), drafter, target, stack.decoder, stack.scorer,
                    AlwaysRejectPolicy(), latency=calibration.latency,
                )

    def test_commit_hashes_only_the_new_block(self, monkeypatch):
        hashes = count_digests(monkeypatch)
        blocks = [make_block(i, fill=float(i)) for i in range(20)]
        assert sites(hashes) == {"built": 20}
        cache = KVCache(CacheOwner.DRAFTER)
        for block in blocks:
            cache.commit(block)
        # A commit records the digest its block took when it was built.
        assert sites(hashes) == {"built": 20}
        assert cache.replay() == cache
        # replay re-hashes each entry once; its re-commits hash nothing.
        assert sites(hashes) == {"built": 20, "cache": 20}

    def test_engine_run_hashes_linearly_in_blocks(self, calibration, config, monkeypatch):
        blocks = 576
        config = config.with_overrides(num_blocks=blocks)
        stack = build_synthetic_stack(calibration, config)
        hashes = count_digests(monkeypatch)
        result = run_video_detailed(
            config, PromptSpec("long"), stack.drafter, stack.target, stack.decoder,
            stack.scorer, ThresholdPolicy(tau=-0.7), latency=calibration.latency,
        )
        rejected = sum(not t.decision.accepted for t in result.summary.block_traces)
        assert 0 < rejected < blocks
        # One hash per block built (every draft, and a regeneration per rejected
        # block), none per commit, and one end-of-run check of each cache's entries.
        assert sites(hashes) == {"built": blocks + rejected, "cache": 2 * blocks}

    def test_tip_digest_tracks_last_entry(self):
        cache = KVCache(CacheOwner.DRAFTER)
        assert cache.tip_digest() == "empty"
        cache.commit(make_block(0))
        assert cache.tip_digest() == cache.digests()[-1]


SWEEP_ARMS = SweepSpec(thresholds=(-0.7, -0.8, -0.9, -1.0, -1.5, -2.0, -2.5)).arms()


def run_sweep_arms(stack, calibration, config, target=None):
    """One prompt under the sweep's 9 arms (target-only, 7 thresholds, draft-only)."""
    return run_arms_detailed(
        config, PromptSpec("p00003"), stack.drafter, target or stack.target, stack.decoder,
        stack.scorer, SWEEP_ARMS, calibration.latency,
    )


def distinct_targets(results) -> list[KVCache]:
    return list({id(r.target_kv): r.target_kv for r in results}.values())


class TestLaneHashing:
    def test_each_block_is_hashed_once_and_each_entry_checked_once(
        self, stack, calibration, config, monkeypatch
    ):
        hashes = count_digests(monkeypatch)
        results = run_sweep_arms(stack, calibration, config)
        targets = distinct_targets(results)
        kv_caches = [results[0].drafter_kv, *targets]
        entries = list({id(e): e for kv in kv_caches for e in kv.entries}.values())
        blocks = {id(e.block) for e in entries}
        # The lanes forked, so target caches share entries and drafts sit in several caches.
        assert len(targets) > 2
        assert len(entries) < sum(map(len, kv_caches))
        assert len(blocks) < len(entries)
        built = Counter(id(block) for site, block in hashes if site == "built")
        checked = Counter(id(block) for site, block in hashes if site == "cache")
        assert built == Counter(blocks)
        assert checked == Counter(id(e.block) for e in entries)

    def test_forged_digest_on_a_shared_entry_names_the_target_cache(
        self, stack, calibration, config
    ):
        targets = distinct_targets(run_sweep_arms(stack, calibration, config))
        # Every arm but draft-only rejects block 0, so the target regenerates it
        # once, and every lane that forked from theirs shares that entry 0.
        regenerated = [kv.entries[0] for kv in targets if kv.entries[0].producer is Producer.TARGET]
        assert len(targets) > 2 and len(regenerated) == len(targets) - 1
        assert len({id(entry) for entry in regenerated}) == 1

        class Forging:
            """Forges, in place, the shared entry 0 of its cache before the last block."""

            def generate(self, noise_seed, kv, block_index, prompt):
                if block_index == config.num_blocks - 1:
                    object.__setattr__(kv.entries[0], "digest", "0" * 32)
                return stack.target.generate(noise_seed, kv, block_index, prompt)

        with pytest.raises(IntegrityError, match="target cache entry 0"):
            run_sweep_arms(stack, calibration, config, target=Forging())


class TestSnapshotRestore:
    def fresh(self):
        decoder = SyntheticDecoder(default_config())
        return decoder, decoder.fresh_state()

    def mutate(self, decoder, state, index=0, fill=1.5):
        decoder.decode(make_block(index, fill=fill), state)

    def test_restore_recovers_capture_digest(self):
        decoder, state = self.fresh()
        snap = decode_snapshot(state)
        self.mutate(decoder, state)
        assert state.digest() != snap.captured_digest
        decode_restore(state, snap)
        assert state.digest() == snap.captured_digest

    def test_immediate_restore_is_noop(self):
        _, state = self.fresh()
        before = state.digest()
        decode_restore(state, decode_snapshot(state))
        assert state.digest() == before

    def test_restore_is_idempotent(self):
        decoder, state = self.fresh()
        snap = decode_snapshot(state)
        self.mutate(decoder, state)
        decode_restore(state, snap)
        once = state.digest()
        decode_restore(state, snap)
        assert state.digest() == once

    def test_snapshot_unaffected_by_later_mutation(self):
        decoder, state = self.fresh()
        snap = decode_snapshot(state)
        captured = snap.state_copy.carry.copy()
        self.mutate(decoder, state)
        assert np.array_equal(snap.state_copy.carry, captured)

    def test_interleaved_snapshots_restore_lifo(self):
        decoder, state = self.fresh()
        snap_a = decode_snapshot(state)
        self.mutate(decoder, state, 0)
        snap_b = decode_snapshot(state)
        self.mutate(decoder, state, 1)
        decode_restore(state, snap_b)
        assert state.digest() == snap_b.captured_digest
        decode_restore(state, snap_a)
        assert state.digest() == snap_a.captured_digest

    def test_incompatible_snapshot_rejected(self):
        _, state = self.fresh()
        other_geometry = (9, 7, 8, 8)
        foreign = decode_snapshot(SynthDecodeState(np.zeros(4), 0, other_geometry))
        with pytest.raises(SnapshotMismatchError):
            decode_restore(state, foreign)


class SnapshotMachine(RuleBasedStateMachine):
    """Random snapshot/mutate/restore schedules against a deep-copy oracle."""

    snapshots = Bundle("snapshots")

    def __init__(self):
        super().__init__()
        self.decoder = SyntheticDecoder(default_config())
        self.state = self.decoder.fresh_state()
        self.block = 0

    @rule(target=snapshots)
    def take_snapshot(self):
        snap = decode_snapshot(self.state)
        oracle = copy.deepcopy((self.state.carry, self.state.blocks_decoded))
        return snap, oracle

    @rule(fill=st.floats(-3, 3, allow_nan=False))
    def mutate(self, fill):
        index = min(self.block, 8)
        self.decoder.decode(make_block(index, fill=fill), self.state)
        self.block += 1

    @rule(pair=snapshots)
    def restore_and_compare(self, pair):
        snap, (carry, blocks_decoded) = pair
        decode_restore(self.state, snap)
        assert self.state.digest() == snap.captured_digest
        assert np.array_equal(self.state.carry, carry)
        assert self.state.blocks_decoded == blocks_decoded


def test_snapshot_state_machine():
    run_state_machine_as_test(
        SnapshotMachine, settings=settings(max_examples=25, stateful_step_count=30, deadline=None)
    )
