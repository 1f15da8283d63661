"""Commit-log KV caches and snapshot/restore semantics for decoder state.

The KV cache here is not attention state: it is an append-only log of the
block payloads each model has committed, which is everything the routing
algorithm observes. Committed payloads are immutable by construction,
and a block is hashed once, when it is built (LatentBlock.digest), so a
commit hashes nothing; full verification re-hashes on demand (see
KVCache). The decoder cache is the temporal state of the causal frame
decoder; it is cloned before a draft is scored and restored when the
draft is rejected, so a rejected draft leaves no trace in emitted frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Protocol

from .core import LatentBlock, Producer, block_digest

__all__ = [
    "CacheOwner",
    "ContiguityError",
    "IntegrityError",
    "SnapshotMismatchError",
    "KVEntry",
    "KVCache",
    "DecodeCacheSnapshot",
    "decode_snapshot",
    "decode_restore",
]


class CacheOwner(str, Enum):
    DRAFTER = "drafter"
    TARGET = "target"


class ContiguityError(ValueError):
    """Commit attempted at a block index other than the next one."""


class IntegrityError(RuntimeError):
    """A committed entry no longer matches its recorded digest."""


class SnapshotMismatchError(ValueError):
    """Snapshot restored into an incompatible decoder state."""


@dataclass(frozen=True)
class KVEntry:
    block_index: int
    producer: Producer
    digest: str
    block: LatentBlock


class KVCache:
    """Append-only commit log of generated blocks for one model.

    Entries are immutable once committed; indices are contiguous from 0.
    A commit records the digest its block took when it was built and
    hashes nothing: a LatentBlock's payload is a read-only view over its
    own bytes, so re-hashing on commit would add no guarantee.
    verify_integrity() re-hashes entries against their recorded digests;
    replay() calls it first, and the engine calls it once per run, with one
    set shared by its caches so that each distinct entry is re-hashed once.
    """

    def __init__(self, owner: CacheOwner):
        self.owner = owner
        self._entries: list[KVEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[KVEntry, ...]:
        return tuple(self._entries)

    def commit(self, block: LatentBlock) -> KVEntry:
        if block.block_index != len(self._entries):
            raise ContiguityError(
                f"{self.owner.value} cache expected block {len(self._entries)}, "
                f"got {block.block_index}"
            )
        entry = KVEntry(block.block_index, block.producer, block.digest, block)
        self._entries.append(entry)
        return entry

    def fork(self) -> KVCache:
        """An independent cache holding the same (immutable) entries.

        Later commits to either cache leave the other unchanged.
        """
        twin = KVCache(self.owner)
        twin._entries = self._entries.copy()
        return twin

    def verify_integrity(self, verified: set[int] | None = None) -> None:
        """Re-hash every entry; raise IntegrityError on the first that differs.

        With a set of entry ids, entries already in it are skipped and each
        entry checked is added, so caches forked from one another check
        their shared prefix once between them.
        """
        verified = set() if verified is None else verified
        for entry in self._entries:
            if id(entry) in verified:
                continue
            verified.add(id(entry))
            if block_digest(entry.block) != entry.digest:
                raise IntegrityError(
                    f"{self.owner.value} cache entry {entry.block_index} was mutated"
                )

    def digests(self) -> tuple[str, ...]:
        return tuple(e.digest for e in self._entries)

    def tip_digest(self) -> str:
        return self._entries[-1].digest if self._entries else "empty"

    def replay(self) -> KVCache:
        """Verify this cache, then rebuild an equal one by re-committing its payloads."""
        self.verify_integrity()
        fresh = KVCache(self.owner)
        for entry in self._entries:
            fresh.commit(entry.block)
        return fresh

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KVCache):
            return NotImplemented
        return self.owner == other.owner and self.digests() == other.digests()


# ---------------------------------------------------------------------------
# Decoder-state snapshots
# ---------------------------------------------------------------------------


class RestorableState(Protocol):
    """What the snapshot machinery needs from a decoder state object."""

    def clone(self) -> "RestorableState": ...

    def digest(self) -> str: ...

    def load(self, other: "RestorableState") -> None: ...


@dataclass(frozen=True)
class DecodeCacheSnapshot:
    """Deep copy of decoder temporal state and its digest at capture.

    A full copy rather than copy-on-write: state is small at desk scale
    and an independent copy keeps restore semantics trivially correct.
    """

    state_copy: RestorableState = field(repr=False)
    captured_digest: str


def decode_snapshot(state: RestorableState) -> DecodeCacheSnapshot:
    return DecodeCacheSnapshot(state_copy=state.clone(), captured_digest=state.digest())


def decode_restore(state: RestorableState, snapshot: DecodeCacheSnapshot) -> None:
    """Restore state in place; afterwards its digest equals the captured one."""
    try:
        state.load(snapshot.state_copy)
    except SnapshotMismatchError:
        raise
    except Exception as exc:
        raise SnapshotMismatchError(f"snapshot restore failed: {exc}") from exc
    if state.digest() != snapshot.captured_digest:
        raise SnapshotMismatchError(
            "restored state digest does not match the digest recorded at capture"
        )
