//! The benchmark's hooks into the engine: a timing [`Policy`] wrapper and
//! a [`Recorder`] that keeps the per-layer ledger.
//!
//! Both sit outside the program and see only what its public hooks hand
//! them. With one engine worker every policy call happens on the thread
//! that runs the batch, outside the engine's filter/build/probe/route
//! timers (planning precedes the selection phase, learning follows
//! routing), so batch wall time splits into those four phases, `choose`
//! and `observe` time, and a remainder with nothing counted twice.

use roulette_core::{CostModel, EngineConfig, QuerySet};
use roulette_policy::{Lineage, LogEntry, OpId, PlanSpace, Policy, QLearningPolicy, Scope};
use roulette_telemetry::{EpisodeSample, EventKind, PolicyProbe, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Time and calls spent in the learned policy during one batch. The
/// policy's other calls (`estimate`, `probe` for telemetry) are rare and
/// stay in the batch's unattributed remainder.
#[derive(Debug, Default)]
pub struct PolicyTimes {
    pub choose_calls: AtomicU64,
    pub choose_ns: AtomicU64,
    pub observe_ns: AtomicU64,
    /// Q-table entries when the engine dropped the policy.
    pub q_entries: AtomicU64,
}

impl PolicyTimes {
    /// `choose` and `observe` time, in seconds.
    pub fn total_s(&self) -> f64 {
        let ns = self.choose_ns.load(Ordering::Relaxed) + self.observe_ns.load(Ordering::Relaxed);
        ns as f64 / 1e9
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// [`QLearningPolicy`] with `choose` and `observe` timed into a shared
/// [`PolicyTimes`].
/// Built exactly as `RouletteEngine::execute_batch` builds its default
/// policy, so it makes the same decisions.
pub struct TimedPolicy {
    inner: QLearningPolicy,
    times: Arc<PolicyTimes>,
}

impl TimedPolicy {
    pub fn new(config: &EngineConfig, times: Arc<PolicyTimes>) -> Self {
        TimedPolicy {
            inner: QLearningPolicy::new(CostModel::default(), config),
            times,
        }
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let n = u64::try_from(self.inner.table_len()).unwrap_or(u64::MAX);
        self.times.q_entries.store(n, Ordering::Relaxed);
    }
}

impl Policy for TimedPolicy {
    fn choose(
        &mut self,
        scope: Scope,
        lineage: Lineage,
        queries: &QuerySet,
        candidates: &[OpId],
        space: &dyn PlanSpace,
    ) -> OpId {
        let t0 = Instant::now();
        let op = self
            .inner
            .choose(scope, lineage, queries, candidates, space);
        self.times
            .choose_ns
            .fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.times.choose_calls.fetch_add(1, Ordering::Relaxed);
        op
    }

    fn observe(&mut self, entry: &LogEntry, space: &dyn PlanSpace) {
        let t0 = Instant::now();
        self.inner.observe(entry, space);
        self.times
            .observe_ns
            .fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    }

    fn estimate(
        &self,
        scope: Scope,
        lineage: Lineage,
        queries: &QuerySet,
        space: &dyn PlanSpace,
    ) -> f64 {
        self.inner.estimate(scope, lineage, queries, space)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn probe(&self) -> Option<PolicyProbe> {
        self.inner.probe()
    }

    fn exploration(&self) -> Option<f64> {
        self.inner.exploration()
    }

    fn set_exploration(&mut self, epsilon: f64) -> bool {
        self.inner.set_exploration(epsilon)
    }
}

/// What the [`Ledger`] recorder collected.
#[derive(Debug, Default, Clone)]
pub struct LedgerData {
    pub episode_us: Vec<f64>,
    pub scanned: u64,
    pub selected: u64,
    pub inserted: u64,
    pub probe_batches: u64,
    pub probe_tuples: u64,
    pub scratch_hits: u64,
    pub scratch_misses: u64,
    /// When the hub relation of a stream expired tuples: one mark per
    /// steady-state epoch, in nanoseconds since the ledger's origin.
    pub epoch_marks_ns: Vec<u64>,
}

/// A benchmark-side [`Recorder`]. With `full` unset it only keeps the
/// stream's epoch clock (the hub's `window-expiry` event), which is what
/// untraced stream runs attach.
pub struct Ledger {
    full: bool,
    origin: Instant,
    data: Mutex<LedgerData>,
}

impl Ledger {
    pub fn new(full: bool, origin: Instant) -> Self {
        Ledger {
            full,
            origin,
            data: Mutex::new(LedgerData::default()),
        }
    }

    fn data(&self) -> std::sync::MutexGuard<'_, LedgerData> {
        self.data
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> LedgerData {
        self.data().clone()
    }
}

/// Relation slot of the stream's hub (`s_fact`, added to the store first).
/// It receives arrivals every epoch, so once the window is full it expires
/// tuples every epoch.
const HUB_SLOT: u16 = 0;

impl Recorder for Ledger {
    fn record_episode(&self, sample: &EpisodeSample) {
        if self.full {
            let mut d = self.data();
            d.episode_us.push(sample.latency_ns as f64 / 1e3);
            d.scanned += sample.scanned;
            d.selected += sample.selected;
            d.inserted += sample.inserted;
        }
    }

    fn record_probe_batch(&self, tuples: u64) {
        if self.full {
            let mut d = self.data();
            d.probe_batches += 1;
            d.probe_tuples += tuples;
        }
    }

    fn record_scratch(&self, hits: u64, misses: u64) {
        if self.full {
            let mut d = self.data();
            d.scratch_hits += hits;
            d.scratch_misses += misses;
        }
    }

    fn record_event(&self, _episode: u64, kind: EventKind) {
        if let EventKind::WindowExpiry {
            relation: HUB_SLOT, ..
        } = kind
        {
            let now = elapsed_ns(self.origin);
            self.data().epoch_marks_ns.push(now);
        }
    }
}
