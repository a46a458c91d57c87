//! Memoization of estimated SMP parameters.
//!
//! Q/H estimation re-reads the raw history logs on every TR query
//! (`qh_estimation/2h` ≈ 43 µs in `BENCH_baseline.json`) even though a
//! scheduler polling the same machines re-asks for the same
//! (host, window, day-class, history selection) over and over. [`QhCache`]
//! is a capacity-bounded LRU over [`fgcs_runtime::cache::LruCache`] holding
//! one kernel per such coordinate, stored next to the history length it
//! was estimated at. A lookup at any other length misses, and the fresh
//! estimate replaces the coordinate's kernel in place, so appending a day
//! supersedes the old kernel instead of stranding it. A store edited in
//! place (e.g. through `HistoryStore::days_mut`) keeps its length, so it
//! needs a fresh cache.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use fgcs_runtime::cache::LruCache;

use crate::error::CoreError;
use crate::log::HistoryStore;
use crate::predictor::SmpPredictor;
use crate::smp::SmpParams;
use crate::window::{DayType, TimeWindow};

/// Lock stripes in [`KernelDedup`] (a power of two; the content hash picks
/// the stripe, so shards interning concurrently rarely contend).
const DEDUP_STRIPES: usize = 16;

/// Registry-level content-addressed interning of [`SmpParams`].
///
/// At fleet scale many hosts exhibit the same availability class — in the
/// cluster benches a 64-day pool covers 10 000 hosts — so their estimated
/// kernels are bit-identical. `intern` maps each freshly estimated kernel
/// to a canonical `Arc` by content hash (FNV over the sparse solver view,
/// see [`SmpParams::content_hash`]) with full [`PartialEq`] fallback on
/// hash match: a collision costs one comparison, never a wrong share.
/// Because every consumer then holds the *same* `Arc`, the kernel's own
/// solve memo (`SmpParams::horizon_tr`) is shared by every host that
/// shares the kernel — this is what collapses a 1 000-host cluster sweep
/// over a shared history into one solve plus 999 memo reads.
///
/// Entries hold only `Weak` handles, which never keep a kernel alive:
/// dropping the last consumer makes the entry dead. When [`QhCache`]
/// replaces or evicts a kernel it prunes that kernel's bucket.
#[derive(Default)]
pub struct KernelDedup {
    stripes: [Mutex<HashMap<u64, Vec<Weak<SmpParams>>>>; DEDUP_STRIPES],
    hits: AtomicU64,
    lookups: AtomicU64,
}

impl KernelDedup {
    /// Creates an empty dedup table.
    #[must_use]
    pub fn new() -> KernelDedup {
        KernelDedup::default()
    }

    /// Returns the canonical `Arc` for the params' content: the previously
    /// interned content-equal kernel when one is alive, otherwise `params`
    /// itself (now canonical). Dead entries in the probed bucket are pruned
    /// in passing.
    #[must_use]
    pub fn intern(&self, params: Arc<SmpParams>) -> Arc<SmpParams> {
        let hash = params.content_hash();
        self.intern_at(hash, params)
    }

    /// [`intern`](KernelDedup::intern) with the bucket hash supplied by the
    /// caller — the test seam for forcing hash collisions.
    fn intern_at(&self, hash: u64, params: Arc<SmpParams>) -> Arc<SmpParams> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut stripe = self.stripe(hash);
        let bucket = stripe.entry(hash).or_default();
        bucket.retain(|e| e.strong_count() > 0);
        for entry in bucket.iter() {
            if let Some(existing) = entry.upgrade() {
                // Hash match is a hint; only full content equality may
                // substitute one kernel for another.
                if *existing == *params {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    fgcs_runtime::counter_add!("core.registry.kernel_dedup_hits", 1);
                    return existing;
                }
            }
        }
        bucket.push(Arc::downgrade(&params));
        params
    }

    /// Drops the dead entries in the bucket for content hash `hash` — the
    /// bucket a replaced or evicted kernel lived in, so neither leaves a
    /// dead entry behind. Live kernels in the bucket are kept.
    fn prune(&self, hash: u64) {
        let mut stripe = self.stripe(hash);
        if let Some(bucket) = stripe.get_mut(&hash) {
            bucket.retain(|e| e.strong_count() > 0);
            if bucket.is_empty() {
                stripe.remove(&hash);
            }
        }
    }

    /// Number of live interned kernels.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock()
                    .expect("KernelDedup stripe poisoned")
                    .values()
                    .flat_map(|bucket| bucket.iter())
                    .filter(|e| e.strong_count() > 0)
                    .count()
            })
            .sum()
    }

    /// Interns that returned an existing canonical kernel.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total intern attempts.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    fn stripe(&self, hash: u64) -> std::sync::MutexGuard<'_, HashMap<u64, Vec<Weak<SmpParams>>>> {
        self.stripes[(hash as usize) & (DEDUP_STRIPES - 1)]
            .lock()
            .expect("KernelDedup stripe poisoned")
    }
}

impl std::fmt::Debug for KernelDedup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelDedup")
            .field("entries", &self.entries())
            .field("hits", &self.hits())
            .field("lookups", &self.lookups())
            .finish()
    }
}

/// The query coordinate a kernel answers: everything but the history
/// length, which is stored next to the kernel instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QhKey {
    host: u64,
    day_type: DayType,
    window: TimeWindow,
    max_history_days: Option<usize>,
    same_day_type_only: bool,
}

impl QhKey {
    fn new(predictor: &SmpPredictor, host: u64, day_type: DayType, window: TimeWindow) -> QhKey {
        let (max_history_days, same_day_type_only) = predictor.history_selection();
        QhKey {
            host,
            day_type,
            window,
            max_history_days,
            same_day_type_only,
        }
    }
}

/// A thread-safe LRU cache of estimated [`SmpParams`], shared across
/// queries via interior mutability (all methods take `&self`).
///
/// Values are held behind [`Arc`] so a hit hands back the cached kernel
/// without cloning the (multi-kilobyte) holding-time vectors. Since
/// [`SmpParams`] now precomputes its sparse solver view (sorted event
/// lists and direct-failure prefix sums) at construction, a cache hit
/// also skips that preprocessing: the fast solver runs straight off the
/// shared kernel with no per-query setup.
pub struct QhCache {
    /// One kernel per coordinate, with the history length it was built at.
    inner: Mutex<LruCache<QhKey, (usize, Arc<SmpParams>)>>,
    dedup: Arc<KernelDedup>,
}

impl QhCache {
    /// Creates a cache bounded to `capacity` kernels, with its own private
    /// [`KernelDedup`] table.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> QhCache {
        QhCache::with_dedup(capacity, Arc::new(KernelDedup::new()))
    }

    /// Creates a cache bounded to `capacity` kernels that interns through a
    /// shared [`KernelDedup`] — how the sharded registry makes every shard
    /// share one canonical kernel per availability class.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn with_dedup(capacity: usize, dedup: Arc<KernelDedup>) -> QhCache {
        QhCache {
            inner: Mutex::new(LruCache::new(capacity)),
            dedup,
        }
    }

    /// Returns the cached kernel for the query coordinates, estimating it
    /// on a miss. Hits return the *same* parameters the first estimation
    /// at this history length produced, bit for bit.
    pub fn get_or_estimate(
        &self,
        predictor: &SmpPredictor,
        host: u64,
        history: &HistoryStore,
        day_type: DayType,
        window: TimeWindow,
    ) -> Result<Arc<SmpParams>, CoreError> {
        self.get_or_compute(
            predictor,
            host,
            history.days().len(),
            day_type,
            window,
            || {
                predictor
                    .estimate_params(history, day_type, window)
                    .map(Arc::new)
            },
        )
    }

    /// Like [`QhCache::get_or_estimate`], but with the kernel source
    /// abstracted: on a miss, `compute` supplies the parameters instead of
    /// the full-scan estimator. This is how the sharded serving registry
    /// populates the cache from its per-host [incremental
    /// estimators](crate::smp::IncrementalEstimator). A hit needs the
    /// stored history length to equal `history_days`; a miss replaces the
    /// coordinate's kernel. Incremental and full-scan fills are
    /// interchangeable for the same coordinates (and bitwise so, per the
    /// estimator's contract).
    pub fn get_or_compute(
        &self,
        predictor: &SmpPredictor,
        host: u64,
        history_days: usize,
        day_type: DayType,
        window: TimeWindow,
        compute: impl FnOnce() -> Result<Arc<SmpParams>, CoreError>,
    ) -> Result<Arc<SmpParams>, CoreError> {
        let key = QhKey::new(predictor, host, day_type, window);
        if let Some((days, params)) = self.lock().get(&key) {
            if *days == history_days {
                fgcs_runtime::counter_add!("core.qh_cache.hits", 1);
                return Ok(Arc::clone(params));
            }
        }
        fgcs_runtime::counter_add!("core.qh_cache.misses", 1);
        // Compute outside the lock: concurrent misses may estimate the
        // same kernel twice, but both sources are deterministic so either
        // result is the same value and the cache stays consistent.
        // Interning swaps the fresh estimate for the canonical
        // content-equal kernel (when one is alive), so hosts with identical
        // Q/H windows share one `Arc` — and one solve memo.
        let params = self.dedup.intern(compute()?);
        let displaced = {
            let mut cache = self.lock();
            let displaced = cache.put(key.clone(), (history_days, Arc::clone(&params)));
            fgcs_runtime::gauge_set!("core.qh_cache.entries", cache.len() as f64);
            displaced
        };
        if let Some((old_key, (_, old))) = displaced {
            // Replacing this coordinate's stale kernel is not an eviction.
            if old_key != key {
                fgcs_runtime::counter_add!("core.qh_cache.evictions", 1);
            }
            // Release the cache's reference first: if it was the kernel's
            // last consumer, its dedup entry is now dead and pruned.
            let hash = old.content_hash();
            drop(old);
            self.dedup.prune(hash);
        }
        Ok(params)
    }

    /// Returns the coordinate's last successfully estimated kernel,
    /// whatever history length it was built at. This is the degraded-mode
    /// fallback — when fresh estimation fails (e.g. the live history was
    /// quarantined away), a kernel estimated from an earlier history
    /// snapshot is still a far better TR source than a prior. This read
    /// does not touch the recency order.
    pub fn get_stale(
        &self,
        predictor: &SmpPredictor,
        host: u64,
        day_type: DayType,
        window: TimeWindow,
    ) -> Option<Arc<SmpParams>> {
        let key = QhKey::new(predictor, host, day_type, window);
        let found = self.lock().peek(&key).map(|(_, params)| Arc::clone(params));
        if found.is_some() {
            fgcs_runtime::counter_add!("core.qh_cache.stale_hits", 1);
        }
        found
    }

    /// Number of kernels currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The configured capacity bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LruCache<QhKey, (usize, Arc<SmpParams>)>> {
        self.inner.lock().expect("QhCache lock poisoned")
    }
}

impl Clone for QhCache {
    fn clone(&self) -> QhCache {
        QhCache {
            inner: Mutex::new(self.lock().clone()),
            dedup: Arc::clone(&self.dedup),
        }
    }
}

impl std::fmt::Debug for QhCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cache = self.lock();
        f.debug_struct("QhCache")
            .field("len", &cache.len())
            .field("capacity", &cache.capacity())
            .field("dedup_entries", &self.dedup.entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{DayLog, StateLog};
    use crate::model::AvailabilityModel;
    use crate::state::State::*;

    fn store(days: usize) -> HistoryStore {
        let mut s = HistoryStore::new();
        for day in 0..days {
            let samples: Vec<_> = (0..1000)
                .map(|i| if i % 97 == day % 7 { S2 } else { S1 })
                .collect();
            s.push_day(DayLog::new(day, StateLog::new(6, samples)));
        }
        s
    }

    /// A weekday (index 4) that fails after its first 50 samples: appending
    /// it must change the weekday kernel.
    fn failing_day() -> DayLog {
        let samples: Vec<_> = (0..1000).map(|i| if i < 50 { S1 } else { S3 }).collect();
        DayLog::new(4, StateLog::new(6, samples))
    }

    fn predictor() -> SmpPredictor {
        SmpPredictor::new(AvailabilityModel::default())
    }

    #[test]
    fn hit_returns_bit_identical_params() {
        let cache = QhCache::new(4);
        let history = store(5);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let first = cache
            .get_or_estimate(&p, 7, &history, DayType::Weekday, w)
            .unwrap();
        let second = cache
            .get_or_estimate(&p, 7, &history, DayType::Weekday, w)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must share the Arc");
        assert_eq!(*first, *second);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn append_invalidates_implicitly() {
        let cache = QhCache::new(4);
        let mut history = store(4);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let before = cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        // A new day with very different behaviour must change the answer.
        history.push_day(failing_day());
        let after = cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_ne!(*before, *after);
        assert_eq!(cache.len(), 1, "the new kernel replaced the old one");
    }

    #[test]
    fn different_hosts_and_windows_do_not_collide() {
        let cache = QhCache::new(8);
        let history = store(5);
        let p = predictor();
        let w1 = TimeWindow::new(0, 600);
        let w2 = TimeWindow::new(600, 600);
        cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w1)
            .unwrap();
        cache
            .get_or_estimate(&p, 2, &history, DayType::Weekday, w1)
            .unwrap();
        cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w2)
            .unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn predictor_config_is_part_of_the_key() {
        let cache = QhCache::new(8);
        let history = store(10);
        let w = TimeWindow::new(0, 600);
        let all = predictor();
        let recent = predictor().with_max_history_days(2);
        let a = cache
            .get_or_estimate(&all, 1, &history, DayType::Weekday, w)
            .unwrap();
        let b = cache
            .get_or_estimate(&recent, 1, &history, DayType::Weekday, w)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "different configs must not share");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bounds_distinct_coordinates() {
        let cache = QhCache::new(2);
        let history = store(5);
        let p = predictor();
        for i in 0..5u32 {
            let w = TimeWindow::new(i * 600, 600);
            cache
                .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn get_stale_returns_the_coordinates_last_kernel() {
        let cache = QhCache::new(8);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        assert!(cache.get_stale(&p, 1, DayType::Weekday, w).is_none());
        let h4 = store(4);
        let h5 = store(5);
        let old = cache
            .get_or_estimate(&p, 1, &h4, DayType::Weekday, w)
            .unwrap();
        let new = cache
            .get_or_estimate(&p, 1, &h5, DayType::Weekday, w)
            .unwrap();
        // The longer history replaced the shorter one's kernel.
        assert_eq!(cache.len(), 1);
        let stale = cache.get_stale(&p, 1, DayType::Weekday, w).unwrap();
        assert!(Arc::ptr_eq(&stale, &new));
        assert!(!Arc::ptr_eq(&stale, &old));
        // A failed estimate keeps it: an empty history is still served it.
        assert!(cache
            .get_or_estimate(&p, 1, &HistoryStore::new(), DayType::Weekday, w)
            .is_err());
        let stale = cache.get_stale(&p, 1, DayType::Weekday, w).unwrap();
        assert!(Arc::ptr_eq(&stale, &new));
        // Other coordinates do not match.
        assert!(cache.get_stale(&p, 2, DayType::Weekday, w).is_none());
        assert!(cache.get_stale(&p, 1, DayType::Weekend, w).is_none());
        assert!(cache
            .get_stale(&p, 1, DayType::Weekday, TimeWindow::new(600, 600))
            .is_none());
    }

    #[test]
    fn estimation_errors_pass_through() {
        let cache = QhCache::new(2);
        let empty = HistoryStore::new();
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        assert!(matches!(
            cache.get_or_estimate(&p, 1, &empty, DayType::Weekday, w),
            Err(CoreError::EmptyHistory { .. })
        ));
        assert!(cache.is_empty(), "errors must not be cached");
    }

    /// Distinct `Arc`s over content-equal params (one day of shared pool
    /// history, as the cluster benches produce per host).
    fn equal_params() -> (Arc<SmpParams>, Arc<SmpParams>) {
        let day: Vec<_> = (0..200).map(|i| if i % 13 < 9 { S1 } else { S2 }).collect();
        let a = Arc::new(SmpParams::estimate(&[&day], 6, 199));
        let b = Arc::new(SmpParams::estimate(&[&day], 6, 199));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b);
        (a, b)
    }

    #[test]
    fn dedup_interns_content_equal_kernels() {
        let dedup = KernelDedup::new();
        let (a, b) = equal_params();
        let ca = dedup.intern(Arc::clone(&a));
        assert!(Arc::ptr_eq(&ca, &a), "first intern is canonical");
        let cb = dedup.intern(b);
        assert!(Arc::ptr_eq(&cb, &a), "second intern shares the first Arc");
        assert_eq!(dedup.entries(), 1);
        assert_eq!(dedup.hits(), 1);
        assert_eq!(dedup.lookups(), 2);
    }

    #[test]
    fn dedup_hash_collision_falls_back_to_full_equality() {
        // Force both kernels into the same bucket: a collision must keep
        // them distinct (full equality arbitrates), and re-interning a copy
        // of either must return the matching canonical, never the
        // colliding neighbour.
        let dedup = KernelDedup::new();
        let (a, a2) = equal_params();
        let quiet = [S1; 200];
        let b = Arc::new(SmpParams::estimate(&[&quiet[..]], 6, 199));
        assert_ne!(*a, *b);
        let forced = 0xdead_beef_u64;
        let ca = dedup.intern_at(forced, Arc::clone(&a));
        let cb = dedup.intern_at(forced, Arc::clone(&b));
        assert!(Arc::ptr_eq(&ca, &a));
        assert!(Arc::ptr_eq(&cb, &b), "collision must not alias kernels");
        assert_eq!(dedup.entries(), 2);
        assert_eq!(dedup.hits(), 0);
        let ca2 = dedup.intern_at(forced, a2);
        assert!(Arc::ptr_eq(&ca2, &a), "copy resolves to its own canonical");
        assert_eq!(dedup.hits(), 1);
    }

    #[test]
    fn dedup_entries_die_with_their_last_consumer() {
        let dedup = KernelDedup::new();
        let (a, _) = equal_params();
        let hash = a.content_hash();
        let canon = dedup.intern(Arc::clone(&a));
        assert_eq!(dedup.entries(), 1);
        drop(canon);
        drop(a);
        assert_eq!(dedup.entries(), 0, "dead weak no longer counts");
        assert_eq!(stored(&dedup), 1);
        dedup.prune(hash);
        assert_eq!(stored(&dedup), 0, "prune drops the dead entry");
    }

    #[test]
    fn replacing_a_shared_kernel_keeps_it_for_the_other_host() {
        // Two hosts share one canonical kernel (identical histories). A day
        // appended to host 1 replaces host 1's kernel; the shared one stays
        // alive through host 2, and only dead entries are pruned.
        let cache = QhCache::new(8);
        let history = store(4);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let a = cache
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        let b = cache
            .get_or_estimate(&p, 2, &history, DayType::Weekday, w)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "identical histories share a kernel");
        assert_eq!(cache.dedup.entries(), 1);
        assert_eq!(cache.dedup.hits(), 1);
        drop(a);
        drop(b);
        let mut longer = store(4);
        longer.push_day(failing_day());
        let c = cache
            .get_or_estimate(&p, 1, &longer, DayType::Weekday, w)
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.dedup.entries(),
            2,
            "host 2 still holds the old kernel"
        );
        cache
            .get_or_estimate(&p, 2, &longer, DayType::Weekday, w)
            .unwrap();
        assert_eq!(cache.dedup.entries(), 1, "both hosts now share the new one");
        assert_eq!(stored(&cache.dedup), 1);
        assert!(Arc::ptr_eq(
            &c,
            &cache.get_stale(&p, 2, DayType::Weekday, w).unwrap()
        ));
    }

    /// Stored dedup entries, live and dead alike.
    fn stored(dedup: &KernelDedup) -> usize {
        dedup
            .stripes
            .iter()
            .map(|s| s.lock().unwrap().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    #[test]
    fn eviction_prunes_the_evicted_kernels_dedup_entry() {
        // Consecutive histories are read through distinct windows (nine
        // 600-s windows inside the 6,000-s test day), so every insert past
        // the capacity evicts the only consumer of an older kernel. Its
        // dedup entry must go with it.
        let cache = QhCache::new(2);
        let p = predictor();
        for days in 1..=50 {
            let w = TimeWindow::new((days % 9) as u32 * 600, 600);
            cache
                .get_or_estimate(&p, 1, &store(days), DayType::Weekday, w)
                .unwrap();
            let stored = stored(&cache.dedup);
            assert!(
                stored <= cache.capacity(),
                "{stored} dedup entries after {days} histories"
            );
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn one_coordinate_holds_one_kernel_as_its_history_grows() {
        let cache = QhCache::new(2);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        for days in 1..=50 {
            cache
                .get_or_estimate(&p, 1, &store(days), DayType::Weekday, w)
                .unwrap();
            assert_eq!(cache.len(), 1, "after {days} histories");
            assert_eq!(stored(&cache.dedup), 1, "after {days} histories");
        }
    }

    #[test]
    fn cache_misses_intern_through_shared_dedup() {
        // Two caches (think: two registry shards) wired to one dedup table
        // hand out the same canonical Arc for content-equal estimates.
        let dedup = Arc::new(KernelDedup::new());
        let ca = QhCache::with_dedup(4, Arc::clone(&dedup));
        let cb = QhCache::with_dedup(4, Arc::clone(&dedup));
        let history = store(5);
        let p = predictor();
        let w = TimeWindow::new(0, 600);
        let a = ca
            .get_or_estimate(&p, 1, &history, DayType::Weekday, w)
            .unwrap();
        let b = cb
            .get_or_estimate(&p, 9, &history, DayType::Weekday, w)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(dedup.entries(), 1);
    }
}
