//! Execution-context model.
//!
//! Each in-flight request runs in its own context so it can be preempted
//! and resumed later, possibly on a *different* worker (§3.4.1: "Once the
//! request reaches the front of the queue again, it can be assigned to any
//! worker"). Workers "spawn a new context and execute the request (or reuse
//! a context if the request had previously been preempted)" and on
//! preemption save "the work it has done so far (e.g., stack and register
//! contents) in host DRAM" (§3.4.3).
//!
//! We model the costs (spawn / save / restore, in host-baseline cycles) and
//! the context pool with exact bookkeeping; the Shinjuku paper's published
//! numbers put a context switch at roughly a few hundred cycles, which the
//! defaults reflect.

use sim_core::SimDuration;

use crate::core::CoreSpec;

/// Cycle costs for context operations (host-baseline cycles).
#[derive(Clone, Copy, Debug)]
pub struct ContextCosts {
    /// Allocate and enter a fresh context for a new request.
    pub spawn_cycles: u64,
    /// Save a preempted context (stack + registers) to DRAM.
    pub save_cycles: u64,
    /// Restore a previously saved context.
    pub restore_cycles: u64,
}

impl Default for ContextCosts {
    fn default() -> Self {
        // Shinjuku-class user-level context switching: ~100 cycles to enter
        // a pooled context, a few hundred to save/restore across DRAM.
        ContextCosts {
            spawn_cycles: 110,
            save_cycles: 320,
            restore_cycles: 280,
        }
    }
}

impl ContextCosts {
    /// Time to spawn on `spec`.
    pub fn spawn(&self, spec: &CoreSpec) -> SimDuration {
        spec.cycles(self.spawn_cycles)
    }

    /// Time to save on `spec`.
    pub fn save(&self, spec: &CoreSpec) -> SimDuration {
        spec.cycles(self.save_cycles)
    }

    /// Time to restore on `spec`.
    pub fn restore(&self, spec: &CoreSpec) -> SimDuration {
        spec.cycles(self.restore_cycles)
    }

    /// Every operation priced on `spec` once, for a model to add on each
    /// dispatch instead of converting cycles per event.
    pub fn priced(&self, spec: &CoreSpec) -> ContextPrices {
        ContextPrices {
            spawn: self.spawn(spec),
            restore: self.restore(spec),
            save: self.save(spec),
        }
    }
}

/// Context-operation times on one core: [`ContextCosts`] priced by
/// [`ContextCosts::priced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContextPrices {
    /// Allocate and enter a fresh context.
    pub spawn: SimDuration,
    /// Restore a previously saved context.
    pub restore: SimDuration,
    /// Save a preempted context to DRAM.
    pub save: SimDuration,
}

impl ContextPrices {
    /// The time `op` takes.
    pub fn op(&self, op: ContextOp) -> SimDuration {
        match op {
            ContextOp::Spawn => self.spawn,
            ContextOp::Restore => self.restore,
        }
    }
}

/// Tracks saved contexts for preempted requests, keyed by request id.
///
/// The pool answers one question on assignment: is this request fresh
/// (spawn) or resumed (restore)? It also counts DRAM residency so tests can
/// assert the "at most one in-flight context per active request" invariant.
#[derive(Debug, Default)]
pub struct ContextPool {
    // Ordered set: resident-context walks must not depend on hasher order.
    saved: std::collections::BTreeSet<u64>,
    /// Total contexts ever spawned.
    pub spawned: u64,
    /// Total save operations.
    pub saves: u64,
    /// Total restore operations.
    pub restores: u64,
    /// High-water mark of saved contexts resident in DRAM.
    pub peak_resident: usize,
}

/// What a worker must do to start running a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContextOp {
    /// First execution: spawn a fresh context.
    Spawn,
    /// Resumption after preemption: restore the saved context.
    Restore,
}

impl ContextPool {
    /// A pool with no saved contexts.
    pub fn new() -> ContextPool {
        ContextPool::default()
    }

    /// Begin executing `req_id`; tells the worker whether to spawn or
    /// restore, and updates bookkeeping.
    pub fn begin(&mut self, req_id: u64) -> ContextOp {
        if self.saved.remove(&req_id) {
            self.restores += 1;
            ContextOp::Restore
        } else {
            self.spawned += 1;
            ContextOp::Spawn
        }
    }

    /// Record that `req_id` was preempted and its context saved to DRAM.
    ///
    /// # Panics
    /// Panics if a context for the same request is already saved — that
    /// would mean the request was running in two places at once.
    pub fn save(&mut self, req_id: u64) {
        let inserted = self.saved.insert(req_id);
        assert!(inserted, "request {req_id} already has a saved context");
        self.saves += 1;
        self.peak_resident = self.peak_resident.max(self.saved.len());
    }

    /// Drop the saved context of a finished/aborted request, if any.
    pub fn discard(&mut self, req_id: u64) {
        self.saved.remove(&req_id);
    }

    /// Whether `req_id` currently has a context saved in DRAM. Lets fault
    /// paths (e.g. a duplicate execution after a retransmit) distinguish
    /// "preempted, resumable" from "never started / already finished"
    /// without tripping the double-save panic.
    pub fn is_saved(&self, req_id: u64) -> bool {
        self.saved.contains(&req_id)
    }

    /// Number of contexts currently saved in DRAM.
    pub fn resident(&self) -> usize {
        self.saved.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_request_spawns() {
        let mut pool = ContextPool::new();
        assert_eq!(pool.begin(1), ContextOp::Spawn);
        assert_eq!(pool.spawned, 1);
        assert_eq!(pool.restores, 0);
    }

    #[test]
    fn preempted_request_restores_even_on_another_worker() {
        let mut pool = ContextPool::new();
        assert_eq!(pool.begin(7), ContextOp::Spawn);
        pool.save(7);
        assert_eq!(pool.resident(), 1);
        // Re-assignment (any worker — the pool is per-request, not per-core).
        assert_eq!(pool.begin(7), ContextOp::Restore);
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.restores, 1);
    }

    #[test]
    fn multiple_preemptions_round_trip() {
        let mut pool = ContextPool::new();
        pool.begin(3);
        for _ in 0..5 {
            pool.save(3);
            assert_eq!(pool.begin(3), ContextOp::Restore);
        }
        assert_eq!(pool.saves, 5);
        assert_eq!(pool.restores, 5);
        assert_eq!(pool.spawned, 1);
    }

    #[test]
    #[should_panic(expected = "already has a saved context")]
    fn double_save_is_a_bug() {
        let mut pool = ContextPool::new();
        pool.begin(9);
        pool.save(9);
        pool.save(9);
    }

    #[test]
    fn peak_residency_tracked() {
        let mut pool = ContextPool::new();
        for id in 0..10 {
            pool.begin(id);
            pool.save(id);
        }
        for id in 0..10 {
            pool.discard(id);
        }
        assert_eq!(pool.peak_resident, 10);
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn costs_scale_with_core() {
        let costs = ContextCosts::default();
        let host = CoreSpec::host_x86();
        let arm = CoreSpec::nic_arm();
        assert!(costs.spawn(&host) < costs.spawn(&arm));
    }

    #[test]
    fn prices_equal_the_live_costs_on_every_core() {
        let costs = ContextCosts::default();
        for spec in [CoreSpec::host_x86(), CoreSpec::nic_arm()] {
            let p = costs.priced(&spec);
            assert_eq!(p.spawn, costs.spawn(&spec));
            assert_eq!(p.restore, costs.restore(&spec));
            assert_eq!(p.save, costs.save(&spec));
            assert_eq!(p.op(ContextOp::Spawn), costs.spawn(&spec));
            assert_eq!(p.op(ContextOp::Restore), costs.restore(&spec));
        }
    }
}
