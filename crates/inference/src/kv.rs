//! Block-granular paged KV-cache management for the serving scheduler.
//!
//! The manager mirrors the vLLM design the paper's §5.2 setup runs on:
//! GPU KV memory is carved into fixed-size blocks of `block_tokens`
//! tokens each, requests hold [`Reservation`]s sized for their
//! *worst-case* decode length (so an admitted request can always grow to
//! completion without an out-of-memory surprise), and a `PrefixCache`
//! pins the blocks of shared prompt prefixes so repeat prefixes skip
//! prefill work.
//!
//! Robustness invariants (DESIGN.md §16):
//!
//! * **conservation** — every allocated block ends in exactly one of
//!   three states: freed (request finished / timed out / evicted),
//!   spilled to host, or lost to a dead rank. [`KvStats::balances`]
//!   checks `allocated == freed + spilled + lost` and the chaos suite
//!   asserts it at exit of every run, rank deaths included.
//! * **no oversubscription surprises** — in the default conservative
//!   mode, the sum of reservations never exceeds the block pool, so an
//!   admitted request can never fail a later allocation. An explicit
//!   oversubscription factor > 1.0 trades that guarantee for occupancy,
//!   backed by watermark-driven spill to host.
//! * **determinism** — the free list is LIFO and all victim selection is
//!   by (blocks, id) order, so identical runs allocate identical block
//!   ids in identical order.

use std::collections::HashMap;

/// Configuration of the paged KV block pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvConfig {
    /// Tokens per KV block (vLLM default is 16).
    pub block_tokens: usize,
    /// Device blocks in the pool. `0` means "derive from the engine's
    /// HBM capacity model" (see `ServingEngine::kv_capacity_tokens`).
    pub total_blocks: usize,
    /// Occupancy fraction above which the manager asks the scheduler to
    /// spill the coldest request to host memory. `1.0` disables
    /// watermark spilling (conservative reservations never need it).
    pub spill_watermark: f64,
    /// Reservation oversubscription factor: reservations may sum to
    /// `factor * total_blocks`. `1.0` (default) is conservative —
    /// admitted requests can never OOM; larger values admit more and
    /// rely on watermark spill / eviction under pressure.
    pub oversubscription: f64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            block_tokens: 16,
            total_blocks: 0,
            spill_watermark: 1.0,
            oversubscription: 1.0,
        }
    }
}

/// A worst-case block reservation held by one admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Blocks reserved (ceil of worst-case tokens / block size).
    pub blocks: usize,
}

/// Lifetime accounting of the block pool. Counters are monotonic over
/// the whole run; `allocated == freed + spilled + lost` must hold once
/// every request has reached a terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvStats {
    /// Blocks ever handed out (device allocations, restores included).
    pub allocated: u64,
    /// Blocks returned by finished / timed-out / evicted requests and
    /// by the prefix cache at teardown.
    pub freed: u64,
    /// Blocks moved to host memory by watermark spill (their requests
    /// keep a host copy and can restore without re-prefilling).
    pub spilled: u64,
    /// Blocks invalidated by a rank death (the dead rank held a shard
    /// of every block, so the device copy is unrecoverable).
    pub lost_to_dead_rank: u64,
    /// Spill events (requests preempted to host).
    pub evictions: u64,
    /// Blocks re-allocated from a host copy (restore after spill or
    /// after a rank death with a surviving host copy).
    pub restored: u64,
    /// Prefix-cache hits (admissions that skipped prefix prefill).
    pub prefix_hits: u64,
    /// Peak simultaneously-used blocks.
    pub peak_used: usize,
}

impl KvStats {
    /// The conservation invariant: every allocated block was freed,
    /// spilled to host, or lost to a dead rank.
    pub fn balances(&self) -> bool {
        self.allocated == self.freed + self.spilled + self.lost_to_dead_rank
    }
}

/// Why an allocation or reservation could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The reservation would push the reserved total past the
    /// oversubscription budget — the request cannot be admitted yet.
    NoHeadroom {
        /// Blocks requested.
        want: usize,
        /// Blocks still reservable.
        available: usize,
    },
    /// The request's worst case exceeds the whole pool — it can never
    /// be admitted at this capacity (e.g. after a shrink).
    NeverFits {
        /// Blocks requested.
        want: usize,
        /// The pool size.
        total: usize,
    },
    /// The free list is empty and nothing can be spilled (allocation
    /// under oversubscription with every block pinned).
    OutOfBlocks,
    /// The request already holds a reservation. Refused before anything
    /// changes.
    AlreadyReserved {
        /// The request.
        id: u64,
    },
    /// The request holds no reservation: it was never reserved, or was
    /// released, spilled or lost since. Refused before anything changes.
    UnknownRequest {
        /// The request.
        id: u64,
    },
}

#[derive(Debug, Clone)]
struct Owner {
    blocks: Vec<u32>,
    reserved: usize,
}

/// The block-granular paged KV manager.
#[derive(Debug, Clone)]
pub struct PagedKvManager {
    cfg: KvConfig,
    free: Vec<u32>,
    owners: HashMap<u64, Owner>,
    reserved_total: usize,
    stats: KvStats,
    prefix: PrefixCache,
}

impl PagedKvManager {
    /// Builds the pool with `cfg.total_blocks` blocks (callers resolve a
    /// zero `total_blocks` against the engine capacity model first).
    pub fn new(cfg: KvConfig) -> PagedKvManager {
        assert!(cfg.block_tokens > 0, "block_tokens must be positive");
        let total = u32::try_from(cfg.total_blocks).expect("block pool fits u32 ids");
        PagedKvManager {
            cfg,
            // LIFO free list popping ascending ids first keeps
            // allocation order deterministic and test-friendly.
            free: (0..total).rev().collect(),
            owners: HashMap::new(),
            reserved_total: 0,
            stats: KvStats::default(),
            prefix: PrefixCache::default(),
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Lifetime accounting counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Blocks needed to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.cfg.block_tokens)
    }

    /// Blocks currently allocated on device.
    pub fn used(&self) -> usize {
        self.cfg.total_blocks - self.free.len()
    }

    /// Device occupancy fraction (used / total). Zero for an empty pool.
    pub fn occupancy(&self) -> f64 {
        if self.cfg.total_blocks == 0 {
            0.0
        } else {
            self.used() as f64 / self.cfg.total_blocks as f64
        }
    }

    /// Fraction of the reservation budget still available — the KV
    /// headroom signal the admission policy reads.
    pub fn reserve_headroom(&self) -> f64 {
        let budget = (self.cfg.total_blocks as f64 * self.cfg.oversubscription).floor();
        if budget <= 0.0 {
            0.0
        } else {
            ((budget - self.reserved_total as f64) / budget).max(0.0)
        }
    }

    /// Whether device occupancy is above the spill watermark (the
    /// scheduler should spill the coldest request).
    pub fn above_watermark(&self) -> bool {
        self.occupancy() > self.cfg.spill_watermark
    }

    /// Reserves worst-case capacity for request `id`.
    ///
    /// # Errors
    ///
    /// [`KvError::AlreadyReserved`] when `id` holds a reservation;
    /// [`KvError::NeverFits`] when the worst case exceeds the whole
    /// pool; [`KvError::NoHeadroom`] when the reservation budget
    /// (`total * oversubscription`) is exhausted.
    pub fn reserve(&mut self, id: u64, worst_case_tokens: usize) -> Result<Reservation, KvError> {
        if self.owners.contains_key(&id) {
            return Err(KvError::AlreadyReserved { id });
        }
        let want = self.blocks_for(worst_case_tokens);
        if want > self.cfg.total_blocks {
            return Err(KvError::NeverFits {
                want,
                total: self.cfg.total_blocks,
            });
        }
        let budget = (self.cfg.total_blocks as f64 * self.cfg.oversubscription).floor() as usize;
        let available = budget.saturating_sub(self.reserved_total);
        if want > available {
            return Err(KvError::NoHeadroom { want, available });
        }
        self.reserved_total += want;
        self.owners.insert(
            id,
            Owner {
                blocks: Vec::new(),
                reserved: want,
            },
        );
        Ok(Reservation { blocks: want })
    }

    /// Grows request `id`'s allocation to cover `tokens` tokens,
    /// returning how many new blocks were allocated.
    ///
    /// # Errors
    ///
    /// [`KvError::UnknownRequest`] when `id` holds no reservation;
    /// [`KvError::OutOfBlocks`] when the free list runs dry (only
    /// possible under oversubscription > 1.0 — the scheduler must spill
    /// a victim and retry).
    pub fn grow_to(&mut self, id: u64, tokens: usize) -> Result<usize, KvError> {
        let want = self.blocks_for(tokens);
        let Some(owner) = self.owners.get_mut(&id) else {
            return Err(KvError::UnknownRequest { id });
        };
        let have = owner.blocks.len();
        if want <= have {
            return Ok(0);
        }
        let need = want - have;
        if need > self.free.len() {
            return Err(KvError::OutOfBlocks);
        }
        for _ in 0..need {
            owner.blocks.push(self.free.pop().expect("checked above"));
        }
        self.stats.allocated += need as u64;
        self.stats.peak_used = self.stats.peak_used.max(self.used());
        Ok(need)
    }

    /// Blocks currently held by request `id`.
    pub fn held(&self, id: u64) -> usize {
        self.owners.get(&id).map_or(0, |o| o.blocks.len())
    }

    /// Releases request `id` entirely (terminal state: finished, timed
    /// out, evicted, shed after reservation). Its device blocks return
    /// to the free list as `freed`.
    pub fn release(&mut self, id: u64) {
        let Some(owner) = self.owners.remove(&id) else {
            return;
        };
        self.reserved_total -= owner.reserved;
        self.stats.freed += owner.blocks.len() as u64;
        self.free_blocks(owner.blocks);
    }

    /// Spills request `id`'s device blocks to host: the blocks return to
    /// the free list as `spilled`, the reservation is dropped (the
    /// request re-queues and re-reserves on restore), and the caller
    /// keeps the host copy's token count.
    pub fn spill(&mut self, id: u64) -> usize {
        let Some(owner) = self.owners.remove(&id) else {
            return 0;
        };
        self.reserved_total -= owner.reserved;
        let n = owner.blocks.len();
        self.stats.spilled += n as u64;
        self.stats.evictions += 1;
        self.free_blocks(owner.blocks);
        n
    }

    /// Picks the spill victim among `candidates`: the request holding
    /// the most device blocks, ties broken by the higher id (newest
    /// first, so the oldest request of a size class survives).
    /// Deterministic by construction.
    pub fn spill_victim(&self, candidates: impl Iterator<Item = u64>) -> Option<u64> {
        candidates
            .filter(|id| self.held(*id) > 0)
            .max_by_key(|id| (self.held(*id), *id))
    }

    /// Re-allocates `tokens` worth of blocks for a request restoring
    /// from a host copy, counting them as `restored` as well as
    /// `allocated`.
    ///
    /// # Errors
    ///
    /// Propagates [`PagedKvManager::reserve`] / [`PagedKvManager::grow_to`] failures.
    pub fn restore(
        &mut self,
        id: u64,
        tokens: usize,
        worst_case_tokens: usize,
    ) -> Result<usize, KvError> {
        self.reserve(id, worst_case_tokens)?;
        match self.grow_to(id, tokens) {
            Ok(n) => {
                self.stats.restored += n as u64;
                Ok(n)
            }
            Err(e) => {
                // Roll the reservation back so the request can retry
                // after a spill frees room.
                let owner = self.owners.remove(&id).expect("just reserved");
                self.reserved_total -= owner.reserved;
                debug_assert!(owner.blocks.is_empty());
                Err(e)
            }
        }
    }

    /// A rank death invalidates every device block: each block is
    /// sharded across all TP ranks, so losing one rank corrupts them
    /// all. Every owner's blocks (prefix cache included) are counted
    /// `lost_to_dead_rank` and returned to the free list; reservations
    /// are dropped (survivor requests re-reserve on their recovery
    /// path); the pool is then resized to `new_total` (the shrunken TP
    /// degree stores fewer tokens: the survivors hold more weights
    /// each). Returns the number of lost blocks.
    pub fn lose_to_dead_rank(&mut self, new_total: usize) -> u64 {
        let mut lost = 0u64;
        for (_, owner) in self.owners.drain() {
            lost += owner.blocks.len() as u64;
        }
        lost += self.prefix.blocks as u64;
        self.prefix = PrefixCache::default();
        self.reserved_total = 0;
        self.stats.lost_to_dead_rank += lost;
        let total = u32::try_from(new_total).expect("block pool fits u32 ids");
        self.cfg.total_blocks = new_total;
        self.free = (0..total).rev().collect();
        lost
    }

    /// Looks up `prefix_id` in the prefix cache: a hit returns the
    /// cached token count (the admission path skips that much prefill).
    pub fn prefix_lookup(&mut self, prefix_id: u64) -> Option<usize> {
        let hit = self.prefix.entries.get(&prefix_id).copied();
        if hit.is_some() {
            self.stats.prefix_hits += 1;
        }
        hit
    }

    /// Inserts a just-prefilled prefix into the cache, pinning its
    /// blocks (they are owned by the cache, not the inserting request).
    /// No-op when the prefix is already cached or the pool lacks room —
    /// the cache never causes pressure.
    pub fn prefix_insert(&mut self, prefix_id: u64, tokens: usize) {
        if tokens == 0 || self.prefix.entries.contains_key(&prefix_id) {
            return;
        }
        let blocks = self.blocks_for(tokens);
        let budget = (self.cfg.total_blocks as f64 * self.cfg.oversubscription).floor() as usize;
        if blocks > self.free.len() || self.reserved_total + blocks > budget {
            return;
        }
        self.reserved_total += blocks;
        for _ in 0..blocks {
            self.free.pop().expect("checked above");
        }
        self.stats.allocated += blocks as u64;
        self.stats.peak_used = self.stats.peak_used.max(self.used());
        self.prefix.entries.insert(prefix_id, tokens);
        self.prefix.blocks += blocks;
    }

    /// Tears the prefix cache down (end of run), freeing its blocks.
    pub fn drop_prefix_cache(&mut self) {
        self.stats.freed += self.prefix.blocks as u64;
        self.reserved_total -= self.prefix.blocks;
        // Block identity of cache-held blocks is not tracked per entry;
        // restore the free list by extending with synthetic ids is
        // wrong — instead rebuild: cache blocks were popped from the
        // free list, so push back that many of the lowest missing ids.
        // Simpler and equivalent for accounting: recompute the free
        // list from scratch over non-owned blocks.
        let total = u32::try_from(self.cfg.total_blocks).expect("fits");
        let mut owned: Vec<u32> = self
            .owners
            .values()
            .flat_map(|o| o.blocks.iter().copied())
            .collect();
        owned.sort_unstable();
        let mut free: Vec<u32> = (0..total)
            .filter(|b| owned.binary_search(b).is_err())
            .collect();
        free.reverse();
        self.free = free;
        self.prefix = PrefixCache::default();
    }
}

/// The prefix cache: shared prompt prefixes whose KV blocks stay
/// resident so repeat arrivals skip their prefix's prefill.
#[derive(Debug, Clone, Default)]
struct PrefixCache {
    /// `prefix_id -> cached token count`.
    entries: HashMap<u64, usize>,
    /// Total blocks pinned by the cache.
    blocks: usize,
}

impl PagedKvManager {
    fn free_blocks(&mut self, mut blocks: Vec<u32>) {
        // Deterministic free order: descending ids so the LIFO pop
        // hands out ascending ids again.
        blocks.sort_unstable_by(|a, b| b.cmp(a));
        self.free.extend(blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(total: usize, over: f64) -> PagedKvManager {
        PagedKvManager::new(KvConfig {
            block_tokens: 16,
            total_blocks: total,
            spill_watermark: 0.9,
            oversubscription: over,
        })
    }

    #[test]
    fn conservative_reservations_never_oom() {
        let mut kv = mgr(10, 1.0);
        // Two requests with worst cases of 80 tokens (5 blocks) each fill
        // the reservation budget exactly.
        kv.reserve(1, 80).unwrap();
        kv.reserve(2, 80).unwrap();
        assert_eq!(
            kv.reserve(3, 16).unwrap_err(),
            KvError::NoHeadroom {
                want: 1,
                available: 0
            }
        );
        // Growth within the reservation can never fail.
        assert_eq!(kv.grow_to(1, 80).unwrap(), 5);
        assert_eq!(kv.grow_to(2, 80).unwrap(), 5);
        assert_eq!(kv.used(), 10);
        kv.release(1);
        kv.release(2);
        assert_eq!(kv.used(), 0);
        assert!(kv.stats().balances());
        assert_eq!(kv.stats().allocated, 10);
        assert_eq!(kv.stats().freed, 10);
        assert_eq!(kv.stats().peak_used, 10);
    }

    #[test]
    fn worst_case_larger_than_pool_never_fits() {
        let mut kv = mgr(4, 1.0);
        assert_eq!(
            kv.reserve(1, 100).unwrap_err(),
            KvError::NeverFits { want: 7, total: 4 }
        );
    }

    #[test]
    fn oversubscription_spills_deterministically() {
        let mut kv = mgr(8, 2.0);
        kv.reserve(1, 96).unwrap(); // 6 blocks worst case
        kv.reserve(2, 96).unwrap(); // 6 more: only legal because 2x budget
        kv.grow_to(1, 96).unwrap();
        assert_eq!(kv.grow_to(2, 48).unwrap_err(), KvError::OutOfBlocks);
        // Victim selection: request 1 holds 6 blocks, request 2 holds 0.
        let victim = kv.spill_victim([1u64, 2].into_iter()).unwrap();
        assert_eq!(victim, 1);
        assert_eq!(kv.spill(victim), 6);
        kv.grow_to(2, 48).unwrap();
        kv.release(2);
        // Restore the spilled request from its host copy.
        assert_eq!(kv.restore(1, 96, 96).unwrap(), 6);
        kv.release(1);
        let s = kv.stats();
        assert!(s.balances(), "{s:?}");
        assert_eq!(s.spilled, 6);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.restored, 6);
    }

    #[test]
    fn rank_death_loses_every_device_block_and_shrinks_the_pool() {
        let mut kv = mgr(10, 1.0);
        kv.reserve(1, 64).unwrap();
        kv.grow_to(1, 64).unwrap(); // 4 blocks
        kv.prefix_insert(99, 32); // 2 cache blocks
        let lost = kv.lose_to_dead_rank(8);
        assert_eq!(lost, 6);
        assert_eq!(kv.config().total_blocks, 8);
        assert_eq!(kv.used(), 0);
        assert_eq!(kv.held(1), 0);
        // The dead request re-reserves on its recovery path.
        kv.restore(1, 64, 64).unwrap();
        kv.release(1);
        let s = kv.stats();
        assert!(s.balances(), "{s:?}");
        assert_eq!(s.lost_to_dead_rank, 6);
    }

    #[test]
    fn prefix_cache_hits_and_teardown_balance() {
        let mut kv = mgr(10, 1.0);
        assert_eq!(kv.prefix_lookup(7), None);
        kv.prefix_insert(7, 48); // 3 blocks pinned
        assert_eq!(kv.prefix_lookup(7), Some(48));
        assert_eq!(kv.prefix_lookup(7), Some(48));
        assert_eq!(kv.stats().prefix_hits, 2);
        assert_eq!(kv.used(), 3);
        // Reservations see the pinned blocks as spoken for.
        assert!(kv.reserve(1, 10 * 16).is_err());
        kv.reserve(1, 7 * 16).unwrap();
        kv.grow_to(1, 7 * 16).unwrap();
        kv.release(1);
        kv.drop_prefix_cache();
        assert_eq!(kv.used(), 0);
        assert!(kv.stats().balances());
    }

    /// What a refused call must leave as it found: blocks used, blocks
    /// held by requests 1 and 2, the reservation headroom and the stats.
    fn state(kv: &PagedKvManager) -> (usize, usize, usize, f64, KvStats) {
        (
            kv.used(),
            kv.held(1),
            kv.held(2),
            kv.reserve_headroom(),
            kv.stats(),
        )
    }

    #[test]
    fn a_second_reservation_is_refused_before_anything_changes() {
        let mut kv = mgr(10, 1.0);
        kv.reserve(1, 64).unwrap();
        kv.grow_to(1, 64).unwrap(); // 4 blocks
        let before = state(&kv);
        assert_eq!(
            kv.reserve(1, 32).unwrap_err(),
            KvError::AlreadyReserved { id: 1 }
        );
        assert_eq!(
            kv.restore(1, 32, 32).unwrap_err(),
            KvError::AlreadyReserved { id: 1 }
        );
        assert_eq!(state(&kv), before);
        assert_eq!(kv.held(1), 4);
        kv.release(1);
        assert_eq!(kv.used(), 0);
        assert!(kv.stats().balances());
    }

    #[test]
    fn growing_an_unknown_request_is_refused_before_anything_changes() {
        let mut kv = mgr(10, 1.0);
        kv.reserve(1, 64).unwrap();
        kv.grow_to(1, 32).unwrap(); // 2 blocks
        let before = state(&kv);
        assert_eq!(
            kv.grow_to(2, 16).unwrap_err(),
            KvError::UnknownRequest { id: 2 }
        );
        assert_eq!(state(&kv), before);
        // A released request is unknown again.
        kv.reserve(2, 16).unwrap();
        kv.release(2);
        let before = state(&kv);
        assert_eq!(
            kv.grow_to(2, 16).unwrap_err(),
            KvError::UnknownRequest { id: 2 }
        );
        assert_eq!(state(&kv), before);
        kv.release(1);
        assert!(kv.stats().balances());
    }

    #[test]
    fn block_ids_are_deterministic_across_identical_runs() {
        let run = || {
            let mut kv = mgr(6, 1.0);
            kv.reserve(1, 32).unwrap();
            kv.reserve(2, 32).unwrap();
            kv.grow_to(1, 32).unwrap();
            kv.grow_to(2, 32).unwrap();
            kv.release(1);
            kv.reserve(3, 32).unwrap();
            kv.grow_to(3, 32).unwrap();
            let mut held: Vec<(u64, usize)> =
                [2u64, 3].iter().map(|&id| (id, kv.held(id))).collect();
            held.sort_unstable();
            (held, kv.used(), kv.stats())
        };
        assert_eq!(run(), run());
    }
}
