//! Memoization of flow checks over interned label ids.
//!
//! Every enforcement decision — VM read/write barriers, LSM hooks,
//! syscall checks, region entry — bottoms out in a handful of subset
//! queries over labels, and real workloads ask the *same* queries
//! millions of times (§5: the prototype memoizes label comparisons for
//! exactly this reason; LIO-style hybrid systems win the same way by
//! making the already-checked case nearly free).
//!
//! The cache is a process-global, sharded map keyed on
//! `(id, id, check kind)`:
//!
//! * [`CheckKind::Subset`] entries memoize `Label` subset queries, keyed
//!   on two [`LabelId`](crate::LabelId)s;
//! * [`CheckKind::Flow`] entries memoize whole [`SecPair`] flow queries,
//!   keyed on two [`PairId`](crate::PairId)s, so the common repeated
//!   check costs one lookup instead of two.
//!
//! Ahead of any map lookup sit the **inline fast paths** — the empty
//! label/pair and id-equal (pointer-equal, since labels are interned)
//! operands — which answer without touching a lock. Because labels are
//! immutable and ids are never reused, cached entries can never go
//! stale; shards that grow past a bound are wholesale-cleared (an
//! epoch-style eviction) to bound memory on adversarial workloads.
//!
//! Hit/miss/insert counters are process-global atomics, snapshotted via
//! [`flow_cache_stats`] and re-exported through `laminar::stats` so
//! benchmarks and tests can observe cache behaviour.
//!
//! The cache writes nothing to the `laminar-obs` decision trace. One
//! verdict here serves every kernel and VM in the process, so a miss
//! records the state of a shared cache, not a decision of any one
//! reference monitor; the layer that asked (an LSM hook, a syscall's
//! outcome, a VM barrier) logs the decision in its owner's audit.

use crate::label::Label;
use crate::pair::SecPair;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Number of cache shards (power of two).
const SHARDS: usize = 16;

/// Per-shard entry bound; past it the shard is cleared (epoch eviction).
const MAX_SHARD_ENTRIES: usize = 1 << 15;

/// Which question a cache entry answers.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CheckKind {
    /// Label-level `a ⊆ b`, keyed on two label ids.
    Subset,
    /// Pair-level `x` may-flow-to `y`, keyed on two pair ids.
    Flow,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static INSERTS: AtomicU64 = AtomicU64::new(0);
static FAST_HITS: AtomicU64 = AtomicU64::new(0);

/// Test-only fault hooks for the conformance testkit.
///
/// Laminar's correctness argument for the memo cache is that it is
/// *semantically invisible*: every verdict must be bit-identical with
/// the cache disabled, thrashing, or mid-eviction. These hooks let the
/// testkit force each of those regimes without changing the enforcement
/// code under test. The default mode ([`fault::FaultMode::None`]) takes
/// none of the fault branches, so merely compiling the feature in does
/// not perturb behaviour.
#[cfg(feature = "fault-injection")]
pub mod fault {
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

    /// Which cache fault regime is armed, process-wide.
    #[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
    pub enum FaultMode {
        /// No fault: normal cache behaviour.
        #[default]
        None,
        /// Every probe misses and recomputes; nothing is inserted. The
        /// cache is effectively disabled.
        ForceMiss,
        /// Every insert is preceded by a whole-shard eviction, so the
        /// cache permanently thrashes at size ≤ 1.
        EvictionStorm,
        /// Periodically clears *all* shards mid-run (an adversarial
        /// epoch boundary on every 32nd insert).
        EpochChurn,
    }

    static MODE: AtomicU8 = AtomicU8::new(0);
    pub(super) static CHURN_TICK: AtomicU64 = AtomicU64::new(0);

    /// Arms a fault mode for every subsequent cache probe.
    pub fn set_fault_mode(mode: FaultMode) {
        MODE.store(mode as u8, Ordering::SeqCst);
    }

    /// The currently armed fault mode.
    #[must_use]
    pub fn fault_mode() -> FaultMode {
        match MODE.load(Ordering::SeqCst) {
            1 => FaultMode::ForceMiss,
            2 => FaultMode::EvictionStorm,
            3 => FaultMode::EpochChurn,
            _ => FaultMode::None,
        }
    }
}

/// A single-round SplitMix64-style hasher for the cache maps. The keys
/// are already well-distributed 64-bit id packs, so the default
/// (DoS-resistant, multi-round) SipHash would cost more than the memo
/// lookup saves; one avalanche round is plenty and keeps the cached
/// path competitive with the raw structural walk.
#[derive(Default, Clone, Copy, Debug)]
struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = z ^ (z >> 31);
    }
}

#[derive(Default, Clone, Copy, Debug)]
struct KeyHashBuilder;

impl std::hash::BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;
    fn build_hasher(&self) -> KeyHasher {
        KeyHasher::default()
    }
}

/// One cache shard: the memo map plus its own eviction counters.
///
/// Eviction is a *per-shard* event (one shard clearing says nothing
/// about the other fifteen), so the counters live here and
/// [`flow_cache_stats`] sums them into the aggregate — a global atomic
/// would conflate shards and, worse, could not be reset coherently with
/// the maps it describes.
#[derive(Default)]
struct ShardState {
    map: HashMap<(u64, CheckKind), bool, KeyHashBuilder>,
    /// Whole-shard clears this shard has performed.
    evictions: u64,
    /// Entries discarded across all of this shard's clears.
    evicted_entries: u64,
}

impl ShardState {
    /// Clears the shard, recording the eviction in its counters.
    fn evict(&mut self) {
        self.evicted_entries += self.map.len() as u64;
        self.map.clear();
        self.evictions += 1;
    }
}

type Shard = Mutex<ShardState>;

fn shards() -> &'static Vec<Shard> {
    static CACHE: OnceLock<Vec<Shard>> = OnceLock::new();
    CACHE.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(ShardState::default())).collect())
}

fn key(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

fn shard_for(k: u64) -> &'static Shard {
    let mix = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    &shards()[(mix >> 57) as usize & (SHARDS - 1)]
}

/// One cache probe: returns the memoized verdict or computes, records
/// and returns it.
fn probe(k: u64, kind: CheckKind, compute: impl FnOnce() -> bool) -> bool {
    #[cfg(feature = "fault-injection")]
    if fault::fault_mode() == fault::FaultMode::ForceMiss {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return compute();
    }
    let shard = shard_for(k);
    if let Some(&v) =
        shard.lock().unwrap_or_else(PoisonError::into_inner).map.get(&(k, kind))
    {
        HITS.fetch_add(1, Ordering::Relaxed);
        return v;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    // Compute outside the lock: subset math is cheap, and a Flow miss
    // recursively probes Subset entries in other shards.
    let v = compute();
    #[cfg(feature = "fault-injection")]
    match fault::fault_mode() {
        fault::FaultMode::EvictionStorm => {
            shard.lock().unwrap_or_else(PoisonError::into_inner).evict();
        }
        fault::FaultMode::EpochChurn
            if fault::CHURN_TICK.fetch_add(1, Ordering::Relaxed) % 32 == 31 =>
        {
            for s in shards() {
                s.lock().unwrap_or_else(PoisonError::into_inner).evict();
            }
        }
        _ => {}
    }
    let mut st = shard.lock().unwrap_or_else(PoisonError::into_inner);
    if st.map.len() >= MAX_SHARD_ENTRIES {
        st.evict();
    }
    st.map.insert((k, kind), v);
    INSERTS.fetch_add(1, Ordering::Relaxed);
    v
}

/// Memoized subset check `a ⊆ b`.
///
/// Fast paths (no lock): `a` empty or `a` and `b` interned to the same
/// id → `true`; `b` empty (and `a` not) → `false`.
pub(crate) fn cached_subset(a: &Label, b: &Label) -> bool {
    if a.is_empty() || a.id() == b.id() {
        FAST_HITS.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if b.is_empty() {
        FAST_HITS.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    probe(key(a.id().as_u32(), b.id().as_u32()), CheckKind::Subset, || a.is_subset_of(b))
}

/// Memoized pair-level flow check `from` → `to`.
///
/// Fast paths (no lock): identical pair ids (flow is reflexive) and the
/// unlabeled-source/empty-integrity-sink case, which is the overwhelming
/// majority on an incrementally-deployed system where most resources are
/// unlabeled.
pub(crate) fn cached_flow(from: &SecPair, to: &SecPair) -> bool {
    if from.id() == to.id() {
        FAST_HITS.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if from.is_unlabeled() && to.integrity().is_empty() {
        FAST_HITS.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    probe(key(from.id().as_u32(), to.id().as_u32()), CheckKind::Flow, || {
        cached_subset(from.secrecy(), to.secrecy())
            && cached_subset(to.integrity(), from.integrity())
    })
}

/// A point-in-time snapshot of the flow-check cache counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowCacheStats {
    /// Probes answered from the memo table.
    pub hits: u64,
    /// Probes that had to compute the verdict.
    pub misses: u64,
    /// Verdicts inserted into the memo table.
    pub inserts: u64,
    /// Checks answered by the inline fast paths (empty/id-equal), never
    /// touching a lock.
    pub fast_hits: u64,
    /// Shard-clear evictions, summed over all shards (each shard counts
    /// its own clears; a single shard clearing is not a whole-cache
    /// epoch).
    pub evictions: u64,
    /// Memoized entries discarded by those evictions, summed over all
    /// shards.
    pub evicted_entries: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

impl FlowCacheStats {
    /// Fraction of all checks answered without recomputation
    /// (`(hits + fast_hits) / total`), in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let answered = self.hits + self.fast_hits;
        let total = answered + self.misses;
        if total == 0 {
            0.0
        } else {
            answered as f64 / total as f64
        }
    }
}

/// Snapshots the global cache counters. The eviction figures are the
/// per-shard counters summed into a whole-cache aggregate (re-exported
/// through `laminar::stats` for tests and benchmarks).
#[must_use]
pub fn flow_cache_stats() -> FlowCacheStats {
    let mut evictions = 0;
    let mut evicted_entries = 0;
    let mut entries = 0;
    for s in shards() {
        let st = s.lock().unwrap_or_else(PoisonError::into_inner);
        evictions += st.evictions;
        evicted_entries += st.evicted_entries;
        entries += st.map.len();
    }
    FlowCacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        inserts: INSERTS.load(Ordering::Relaxed),
        fast_hits: FAST_HITS.load(Ordering::Relaxed),
        evictions,
        evicted_entries,
        entries,
    }
}

/// Clears the memo table and zeroes every counter, including the
/// per-shard eviction counters, so consecutive test runs start from an
/// identical baseline.
///
/// Intended for benchmarks and tests that measure hit rates; safe (if
/// noisy for concurrent measurements) at any time, since entries are
/// pure memoizations and will simply be recomputed.
pub fn reset_flow_cache() {
    for s in shards() {
        let mut st = s.lock().unwrap_or_else(PoisonError::into_inner);
        st.map.clear();
        st.evictions = 0;
        st.evicted_entries = 0;
    }
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    INSERTS.store(0, Ordering::Relaxed);
    FAST_HITS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    fn l(tags: &[u64]) -> Label {
        Label::from_tags(tags.iter().map(|&n| Tag::from_raw(n)))
    }

    #[test]
    fn cached_subset_matches_oracle() {
        let cases =
            [l(&[]), l(&[200_001]), l(&[200_001, 200_002]), l(&[200_002]), l(&[200_003])];
        for a in &cases {
            for b in &cases {
                // Twice: once to populate, once to hit.
                assert_eq!(cached_subset(a, b), a.is_subset_of(b), "{a} vs {b}");
                assert_eq!(cached_subset(a, b), a.is_subset_of(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cached_flow_matches_oracle() {
        let pairs = [
            SecPair::unlabeled(),
            SecPair::secrecy_only(l(&[200_010])),
            SecPair::integrity_only(l(&[200_011])),
            SecPair::new(l(&[200_010]), l(&[200_011])),
        ];
        for a in &pairs {
            for b in &pairs {
                assert_eq!(cached_flow(a, b), a.flows_to(b), "{a} -> {b}");
                assert_eq!(cached_flow(a, b), a.flows_to(b), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn repeat_checks_hit() {
        let a = l(&[200_020, 200_021]);
        let b = l(&[200_020, 200_021, 200_022]);
        cached_subset(&a, &b); // populate
        let before = flow_cache_stats();
        for _ in 0..100 {
            assert!(cached_subset(&a, &b));
        }
        let after = flow_cache_stats();
        assert!(after.hits >= before.hits + 100);
    }

    #[test]
    fn fast_paths_bypass_the_map() {
        let e = l(&[]);
        let x = l(&[200_030]);
        let before = flow_cache_stats();
        assert!(cached_subset(&e, &x));
        assert!(cached_subset(&x, &x));
        assert!(!cached_subset(&x, &e));
        let after = flow_cache_stats();
        assert!(after.fast_hits >= before.fast_hits + 3);
        // Sibling tests insert concurrently, so the global insert counter
        // proves nothing; the three keys themselves must be absent.
        for (a, b) in [(&e, &x), (&x, &x), (&x, &e)] {
            let k = key(a.id().as_u32(), b.id().as_u32());
            let shard = shard_for(k).lock().unwrap_or_else(PoisonError::into_inner);
            assert!(!shard.map.contains_key(&(k, CheckKind::Subset)), "{a} ⊆ {b}");
        }
    }
}
