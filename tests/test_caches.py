from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, rule, run_state_machine_as_test

from specroute.caches import (
    CacheOwner,
    ContiguityError,
    IntegrityError,
    KVCache,
    SnapshotMismatchError,
    decode_restore,
    decode_snapshot,
)
from specroute.core import GenerationConfig, LatentBlock, Producer, default_config
from specroute.synthmodels import SyntheticDecoder


def make_block(index: int, producer: Producer = Producer.DRAFT, fill: float = 0.0) -> LatentBlock:
    data = np.full((3, 4, 8, 8), fill)
    return LatentBlock(index, data, producer, noise_seed=index + 1)


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
        assert rebuilt.producers() == cache.producers()

    def test_mutated_entry_is_detected(self):
        cache = KVCache(CacheOwner.DRAFTER)
        cache.commit(make_block(0))
        entry = cache.entries[0]
        entry.block.data.setflags(write=True)
        entry.block.data[0, 0, 0, 0] = 99.0
        with pytest.raises(IntegrityError):
            cache.commit(make_block(1))

    def test_fork_is_equal_and_independent(self):
        cache = KVCache(CacheOwner.TARGET)
        for i in range(3):
            cache.commit(make_block(i, fill=float(i)))
        fork = cache.fork()
        assert fork == cache and fork is not cache
        assert fork.producers() == cache.producers()
        cache.commit(make_block(3, Producer.DRAFT, fill=1.0))
        fork.commit(make_block(3, Producer.TARGET, fill=2.0))
        assert len(cache) == len(fork) == 4
        assert cache.digests()[:3] == fork.digests()[:3]
        assert cache.digests()[3] != fork.digests()[3]
        assert cache.producers()[3] is Producer.DRAFT
        assert fork.producers()[3] is Producer.TARGET

    def test_fork_verifies_inherited_entries_on_commit(self):
        cache = KVCache(CacheOwner.TARGET)
        cache.commit(make_block(0))
        fork = cache.fork()
        data = fork.entries[0].block.data
        data.setflags(write=True)
        data[0, 0, 0, 0] = 99.0
        with pytest.raises(IntegrityError):
            fork.commit(make_block(1))

    def test_tip_digest_tracks_last_entry(self):
        cache = KVCache(CacheOwner.DRAFTER)
        assert cache.tip_digest() == "empty"
        cache.commit(make_block(0))
        assert cache.tip_digest() == cache.digests()[-1]


class TestSnapshotRestore:
    def fresh(self):
        decoder = SyntheticDecoder(default_config())
        return decoder, decoder.fresh_state()

    def mutate(self, decoder, state, index=0, fill=1.5):
        decoder.decode(make_block(index, fill=fill), state)

    def test_restore_recovers_capture_digest(self):
        decoder, state = self.fresh()
        snap = decode_snapshot(state, 0)
        self.mutate(decoder, state)
        assert state.digest() != snap.captured_digest
        decode_restore(state, snap)
        assert state.digest() == snap.captured_digest

    def test_immediate_restore_is_noop(self):
        _, state = self.fresh()
        before = state.digest()
        decode_restore(state, decode_snapshot(state, 0))
        assert state.digest() == before

    def test_restore_is_idempotent(self):
        decoder, state = self.fresh()
        snap = decode_snapshot(state, 0)
        self.mutate(decoder, state)
        decode_restore(state, snap)
        once = state.digest()
        decode_restore(state, snap)
        assert state.digest() == once

    def test_snapshot_unaffected_by_later_mutation(self):
        decoder, state = self.fresh()
        snap = decode_snapshot(state, 0)
        captured = snap.state_copy.carry.copy()
        self.mutate(decoder, state)
        assert np.array_equal(snap.state_copy.carry, captured)

    def test_interleaved_snapshots_restore_lifo(self):
        decoder, state = self.fresh()
        snap_a = decode_snapshot(state, 0)
        self.mutate(decoder, state, 0)
        snap_b = decode_snapshot(state, 1)
        self.mutate(decoder, state, 1)
        decode_restore(state, snap_b)
        assert state.digest() == snap_b.captured_digest
        decode_restore(state, snap_a)
        assert state.digest() == snap_a.captured_digest

    def test_incompatible_snapshot_rejected(self):
        _, state = self.fresh()
        other_decoder = SyntheticDecoder(GenerationConfig(pixel_frames_later_block=7))
        foreign = decode_snapshot(other_decoder.fresh_state(), 0)
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
        snap = decode_snapshot(self.state, self.block)
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
