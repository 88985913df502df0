"""The cluster: a fixed pool of identified processors.

:class:`Cluster` tracks which processor ids are free and which are held
by which owner (a job id).  It enforces the two hard invariants of the
machine model:

* a processor is owned by at most one job at a time;
* releases return exactly the processors that were allocated.

Processor identity matters because restart is *local* (same-processors)
in the paper's model; see :mod:`repro.cluster` for context.

Every processor set crossing this API is an integer bitmask (bit ``p``
set = processor ``p`` in the set; see :mod:`repro.cluster.bitset`).
The state is the free mask plus one mask per owner: the owner masks are
pairwise disjoint and together with the free mask cover the machine
exactly (:meth:`Cluster.check_invariants`).  The only other field is a
memo of :meth:`Cluster.owners_in_mask` answers, dropped on every
allocation and release.
Allocation, release and every feasibility check are then a handful of
word-parallel bitops -- O(n_procs / 64) for the machine sizes in the
paper (100-430 processors) -- with no per-processor loop anywhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.bitset import mask_to_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.allocation import AllocationPolicy


class AllocationError(RuntimeError):
    """Raised on an impossible allocation or an inconsistent release."""


class Cluster:
    """A machine with ``n_procs`` identical, individually tracked processors.

    Parameters
    ----------
    n_procs:
        Total number of processors (e.g. 430 for the CTC SP2, 128 for the
        SDSC SP2, 100 for the KTH SP2).
    policy:
        Allocation policy used by :meth:`allocate`; defaults to
        lowest-id-first, which is deterministic and matches how most
        production schedulers of the era packed nodes.
    """

    def __init__(self, n_procs: int, policy: "AllocationPolicy | None" = None) -> None:
        if n_procs <= 0:
            raise ValueError(f"cluster needs at least one processor, got {n_procs}")
        from repro.cluster.allocation import LowestIdFirst

        self.n_procs = int(n_procs)
        #: all-ones mask over the machine's processor ids
        self._full_mask: int = (1 << self.n_procs) - 1
        self._free_mask: int = self._full_mask
        #: owner job id -> mask of processors it holds (never zero);
        #: pairwise disjoint, and disjoint from the free mask
        self._owner_masks: dict[int, int] = {}
        #: owners_in_mask answers since the last mutation, by query mask
        self._owners_memo: dict[int, tuple[int, ...]] = {}
        self.policy: "AllocationPolicy" = policy or LowestIdFirst()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        """Number of currently free processors."""
        return self._free_mask.bit_count()

    @property
    def busy_count(self) -> int:
        """Number of currently allocated processors."""
        return self.n_procs - self._free_mask.bit_count()

    @property
    def free_mask(self) -> int:
        """Bitmask of free processor ids (bit ``p`` set = proc ``p`` free)."""
        return self._free_mask

    def is_free(self, proc: int) -> bool:
        """Whether processor *proc* is currently free."""
        return bool(self._free_mask >> proc & 1)

    def owner_of(self, proc: int) -> int | None:
        """Job id holding *proc*, or ``None`` if it is free.

        A scan over the owner masks; for tests and diagnostics only.
        """
        if not 0 <= proc < self.n_procs:
            return None
        owners = self.owners_in_mask(1 << proc)
        return owners[0] if owners else None

    def owner_mask(self, owner: int) -> int:
        """Bitmask of processors held by job *owner* (0 if none)."""
        return self._owner_masks.get(owner, 0)

    def owners_in_mask(self, mask: int) -> tuple[int, ...]:
        """Distinct job ids holding processors in *mask*.

        Ordered by the lowest processor each owner holds within *mask*.
        The owner masks are disjoint, so those lowest bits are distinct
        and the sort key is a total order: the result is deterministic
        by construction, and decision paths may iterate it directly.

        Answers are memoised until the next allocation or release: the
        schedulers ask about the same suspended job's processors in
        their quiet-tick bound and again in the next sweep.
        """
        memo = self._owners_memo.get(mask)
        if memo is not None:
            return memo
        busy = mask & self._full_mask & ~self._free_mask
        # key: the lowest bit of the owner's share of *mask*
        hits = sorted(
            [
                (part & -part, owner)
                for owner, held in self._owner_masks.items()
                if (part := held & busy)
            ]
        )
        owners = self._owners_memo[mask] = tuple([owner for _, owner in hits])
        return owners

    def can_allocate(self, count: int) -> bool:
        """Whether *count* free processors exist right now."""
        return count <= self._free_mask.bit_count()

    def can_allocate_mask(self, mask: int) -> bool:
        """Whether every processor in *mask* is currently free."""
        return not (mask & ~self._free_mask)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def allocate(self, count: int, owner: int) -> int:
        """Allocate *count* free processors to job *owner*; returns their mask.

        The concrete processors are chosen by the cluster's policy.

        Raises
        ------
        AllocationError
            If fewer than *count* processors are free, or *count* exceeds
            the machine size (such a job can never run).
        """
        if count <= 0:
            raise AllocationError(f"job {owner}: nonpositive request {count}")
        if count > self.n_procs:
            raise AllocationError(
                f"job {owner}: requests {count} > machine size {self.n_procs}"
            )
        free = self._free_mask.bit_count()
        if count > free:
            raise AllocationError(
                f"job {owner}: requests {count}, only {free} free"
            )
        chosen = self.policy.select_mask(self._free_mask, count)
        if chosen.bit_count() != count:
            raise AllocationError(
                f"policy {type(self.policy).__name__} returned {chosen.bit_count()} "
                f"processors for a request of {count}"
            )
        if chosen & ~self._free_mask:
            raise AllocationError(
                f"policy {type(self.policy).__name__} selected processors "
                f"outside the free pool"
            )
        return self._claim_mask(chosen, owner)

    def allocate_mask(self, mask: int, owner: int) -> int:
        """Allocate exactly the processors in *mask* to job *owner*.

        Used for explicit placement and for the same-processors restart
        of a suspended job.  Returns *mask*.
        """
        if not mask:
            raise AllocationError(f"job {owner}: empty specific allocation")
        missing = mask & ~self._free_mask
        if missing:
            raise AllocationError(
                f"job {owner}: processors {list(mask_to_ids(missing)[:8])} not free"
            )
        return self._claim_mask(mask, owner)

    def _claim_mask(self, mask: int, owner: int) -> int:
        self._owners_memo.clear()
        self._owner_masks[owner] = self._owner_masks.get(owner, 0) | mask
        self._free_mask &= ~mask
        return mask

    def release(self, mask: int, owner: int) -> None:
        """Return the processors in *mask*, held by *owner*, to the free pool.

        All-or-nothing: ownership of the *whole* request is checked with a
        single mask comparison before any state changes, so a partial
        mismatch leaves the cluster untouched.

        Raises
        ------
        AllocationError
            If any processor is not currently owned by *owner* -- this
            catches double-release and ownership-confusion bugs at the
            point of the mistake instead of corrupting the free pool.
        """
        if not mask:
            return
        owned = self._owner_masks.get(owner, 0)
        bad = mask & ~owned
        if bad:
            p = (bad & -bad).bit_length() - 1
            raise AllocationError(
                f"release of processor {p} by job {owner}, "
                f"but it is owned by {self.owner_of(p)!r}"
            )
        self._owners_memo.clear()
        remaining = owned & ~mask
        if remaining:
            self._owner_masks[owner] = remaining
        else:
            del self._owner_masks[owner]
        self._free_mask |= mask

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert internal consistency; used by tests and debug runs."""
        owned_mask = 0
        for owner, mask in sorted(self._owner_masks.items()):
            if not mask:
                raise AllocationError(f"job {owner} holds an empty mask")
            if owned_mask & mask:
                raise AllocationError("processor owned by two jobs")
            owned_mask |= mask
        if owned_mask & self._free_mask:
            raise AllocationError("processor both free and owned")
        if (owned_mask | self._free_mask) != self._full_mask:
            raise AllocationError("processor lost from the pool")
        if (owned_mask | self._free_mask) & ~self._full_mask:
            raise AllocationError("processor id out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n_procs={self.n_procs}, free={self.free_count}, "
            f"busy={self.busy_count})"
        )
