//! Admission control: per-client effort budgets plus a global in-flight
//! gate, both of which *demote* rather than reject.
//!
//! The design rides the degradation ladder from PR 4: an overloaded or
//! over-budget request is not turned away, it is compiled starting at a
//! cheaper rung ([`showdown::LadderOptions::demoted`]). Every request
//! therefore gets an answer, and the only thing load can cost a client
//! is schedule quality — the service-boundary extension of the ladder's
//! totality guarantee.
//!
//! Only compiles pay. [`Admission::admit`] takes the in-flight slot and
//! decides the demotion level from load and the client's balance, but
//! deducts nothing; the server calls [`Permit::charge`] only once it knows
//! the request must compile. A request the memory cache or the store can
//! answer costs no tokens, so a client that repeats cached loops never
//! drains its bucket and is never demoted for it.
//!
//! Everything here is deliberately free of wall-clock state. The token
//! bucket refills per *completed request*, not per second, so the same
//! request sequence against the same server produces the same demotion
//! decisions on any host — which keeps demoted compiles cacheable under
//! their demotion-aware keys.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Tunables for the admission layer.
#[derive(Debug, Clone)]
pub struct AdmissionOptions {
    /// Hard cap on concurrently compiling requests. Arrivals beyond it
    /// *block* (they do not fail); the wait is counted on
    /// `serve.inflight`.
    pub max_inflight: usize,
    /// In-flight count at which new arrivals are demoted one level.
    pub soft_inflight: usize,
    /// In-flight count at which new arrivals are demoted two levels.
    pub heavy_inflight: usize,
    /// Starting (and maximum) token balance per client.
    pub bucket_capacity: u64,
    /// Tokens refunded to a client when one of its requests completes.
    pub refill_per_completion: u64,
    /// Token cost of a full-effort (undemoted) compile.
    pub full_cost: u64,
    /// Token cost of a demoted compile.
    pub demoted_cost: u64,
}

impl Default for AdmissionOptions {
    fn default() -> AdmissionOptions {
        AdmissionOptions {
            max_inflight: 32,
            soft_inflight: 16,
            heavy_inflight: 24,
            bucket_capacity: 64,
            refill_per_completion: 2,
            full_cost: 4,
            demoted_cost: 1,
        }
    }
}

struct AdmState {
    inflight: usize,
    buckets: HashMap<String, u64>,
}

/// The admission gate. One per server; shared by all handler threads.
pub struct Admission {
    opts: AdmissionOptions,
    state: Mutex<AdmState>,
    released: Condvar,
    admitted: AtomicU64,
    demoted: AtomicU64,
    waits: AtomicU64,
}

impl Admission {
    /// A gate with the given tunables.
    pub fn new(opts: AdmissionOptions) -> Admission {
        Admission {
            opts,
            state: Mutex::new(AdmState {
                inflight: 0,
                buckets: HashMap::new(),
            }),
            released: Condvar::new(),
            admitted: AtomicU64::new(0),
            demoted: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }

    /// Admit one request for `client`, blocking while the hard in-flight
    /// cap is reached. Returns a permit whose [`Permit::demotion`] is the
    /// ladder level the request must be compiled at, should it compile.
    /// No tokens are deducted here: [`Permit::charge`] does that. Dropping
    /// the permit releases the in-flight slot and refunds the client's
    /// bucket.
    pub fn admit(&self, client: &str) -> Permit<'_> {
        let mut state = self.state.lock().expect("admission lock");
        while state.inflight >= self.opts.max_inflight {
            self.waits.fetch_add(1, Ordering::Relaxed);
            swp_obs::count(swp_obs::Counter::ServeInflightWaits, 1);
            state = self.released.wait(state).expect("admission lock");
        }
        let load_level = if state.inflight >= self.opts.heavy_inflight {
            2
        } else if state.inflight >= self.opts.soft_inflight {
            1
        } else {
            0
        };
        let balance = *state
            .buckets
            .entry(client.to_owned())
            .or_insert(self.opts.bucket_capacity);
        let budget_level = if balance >= self.opts.full_cost {
            0
        } else if balance >= self.opts.demoted_cost {
            1
        } else {
            2
        };
        let demotion: u32 = load_level.max(budget_level);
        state.inflight += 1;
        drop(state);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        swp_obs::count(swp_obs::Counter::ServeAdmitted, 1);
        if demotion > 0 {
            self.demoted.fetch_add(1, Ordering::Relaxed);
            swp_obs::count(swp_obs::Counter::ServeDemotedByLoad, 1);
        }
        Permit {
            gate: self,
            client: client.to_owned(),
            demotion,
        }
    }

    /// Total admissions so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Admissions that were demoted (by load or by budget).
    pub fn demoted(&self) -> u64 {
        self.demoted.load(Ordering::Relaxed)
    }

    /// Times an arrival blocked on the hard cap.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Current in-flight count (racy snapshot, for reports).
    pub fn inflight(&self) -> usize {
        self.state.lock().expect("admission lock").inflight
    }
}

/// An admitted request. Holds the in-flight slot until dropped.
pub struct Permit<'a> {
    gate: &'a Admission,
    client: String,
    /// Ladder demotion level this request was admitted at (0 = full
    /// effort).
    pub demotion: u32,
}

impl Permit<'_> {
    /// Deduct the cost of compiling at [`Self::demotion`] from the
    /// client's bucket. Call it once, right before the compile; a request
    /// answered without compiling is never charged.
    pub fn charge(&self) {
        let opts = &self.gate.opts;
        let cost = if self.demotion == 0 {
            opts.full_cost
        } else {
            opts.demoted_cost
        };
        let mut state = self.gate.state.lock().expect("admission lock");
        if let Some(balance) = state.buckets.get_mut(&self.client) {
            *balance = balance.saturating_sub(cost);
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().expect("admission lock");
        state.inflight -= 1;
        let cap = self.gate.opts.bucket_capacity;
        let refill = self.gate.opts.refill_per_completion;
        if let Some(balance) = state.buckets.get_mut(&self.client) {
            *balance = (*balance + refill).min(cap);
        }
        drop(state);
        self.gate.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_effort_until_bucket_drains_then_demoted() {
        let opts = AdmissionOptions {
            bucket_capacity: 8,
            full_cost: 4,
            demoted_cost: 1,
            refill_per_completion: 0,
            ..AdmissionOptions::default()
        };
        let gate = Admission::new(opts);
        // 8 tokens / 4 per full compile = two full-effort compiles.
        for _ in 0..2 {
            let permit = gate.admit("c");
            assert_eq!(permit.demotion, 0);
            permit.charge();
        }
        // Balance 0: straight to level 2.
        assert_eq!(gate.admit("c").demotion, 2);
        // A different client has its own bucket.
        assert_eq!(gate.admit("other").demotion, 0);
    }

    #[test]
    fn completions_refund_the_bucket() {
        let opts = AdmissionOptions {
            bucket_capacity: 4,
            full_cost: 4,
            demoted_cost: 1,
            refill_per_completion: 4,
            ..AdmissionOptions::default()
        };
        let gate = Admission::new(opts);
        for _ in 0..5 {
            // Each compile drains the bucket and its completion refills
            // it, so every request runs at full effort.
            let permit = gate.admit("c");
            assert_eq!(permit.demotion, 0);
            permit.charge();
        }
        assert_eq!(gate.demoted(), 0);
    }

    #[test]
    fn requests_that_never_charge_never_drain_the_bucket() {
        let opts = AdmissionOptions {
            bucket_capacity: 4,
            full_cost: 4,
            demoted_cost: 1,
            refill_per_completion: 0,
            ..AdmissionOptions::default()
        };
        let gate = Admission::new(opts);
        // Answers from the cache or the store are admitted and dropped
        // without a charge: however many there are, the bucket stays full.
        for _ in 0..100 {
            assert_eq!(gate.admit("c").demotion, 0);
        }
        assert_eq!(gate.demoted(), 0);
        gate.admit("c").charge();
        assert_eq!(gate.admit("c").demotion, 2);
    }

    #[test]
    fn load_demotes_before_the_hard_cap_blocks() {
        let opts = AdmissionOptions {
            max_inflight: 4,
            soft_inflight: 1,
            heavy_inflight: 3,
            ..AdmissionOptions::default()
        };
        let gate = Admission::new(opts);
        let p0 = gate.admit("c");
        assert_eq!(p0.demotion, 0);
        let p1 = gate.admit("c");
        assert_eq!(p1.demotion, 1);
        let p2 = gate.admit("c");
        assert_eq!(p2.demotion, 1);
        let p3 = gate.admit("c");
        assert_eq!(p3.demotion, 2);
        drop((p0, p1, p2, p3));
        // All slots released: back to full effort.
        assert_eq!(gate.admit("c").demotion, 0);
        assert_eq!(gate.waits(), 0);
    }

    #[test]
    fn hard_cap_blocks_and_wakes() {
        let opts = AdmissionOptions {
            max_inflight: 1,
            soft_inflight: 10,
            heavy_inflight: 10,
            ..AdmissionOptions::default()
        };
        let gate = std::sync::Arc::new(Admission::new(opts));
        let held = gate.admit("a");
        let g2 = gate.clone();
        let waiter = std::thread::spawn(move || {
            let p = g2.admit("b");
            drop(p);
        });
        // Give the waiter time to block, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(held);
        waiter.join().expect("waiter");
        assert!(gate.waits() >= 1);
        assert_eq!(gate.inflight(), 0);
    }
}
