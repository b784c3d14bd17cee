//! Output checks: a speed-up must leave every simulated statistic
//! identical, so each rep's simulated outcome is reduced to a digest and
//! compared with a reference.

use workload::RunMetrics;

/// FNV-1a over a sequence of words.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of a run's simulated outcome: every field of [`RunMetrics`]
/// (rates and utilization by their bit patterns, so a reordered float sum
/// shows) and every [`workload::FaultMetrics`] counter. Only the optional
/// stage report is left out, so a probed and an unprobed run of one spec
/// digest alike.
pub fn digest(m: &RunMetrics) -> u64 {
    let f = &m.faults;
    fnv1a(&[
        m.offered_rps.to_bits(),
        m.achieved_rps.to_bits(),
        m.mean.as_nanos(),
        m.worker_utilization.to_bits(),
        m.completed,
        m.p50.as_nanos(),
        m.p99.as_nanos(),
        m.p999.as_nanos(),
        m.p99_short.as_nanos(),
        m.p99_long.as_nanos(),
        m.dropped,
        m.preemptions,
        f.attempts,
        f.launched,
        f.completed_all,
        f.retries,
        f.timeouts,
        f.duplicates,
        f.orphaned,
        f.abandoned,
        f.open_at_horizon,
        f.req_link_lost,
        f.resp_link_lost,
        f.ring_dropped,
        f.shed,
        f.nacks,
        f.stranded,
        f.fallback_switches,
        f.fallback_ns,
        f.quarantines,
        f.recovered,
        f.recovery_duplicates,
        f.suspicions,
        f.readmissions,
    ])
}

/// Why a rep failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The simulator panicked.
    Panicked,
    /// The request ledger did not close (`faults.unaccounted() != 0`).
    LedgerLeak(i64),
    /// The simulated digest differs from the reference.
    DigestMismatch {
        /// Digest of this rep.
        got: u64,
        /// Reference digest.
        want: u64,
    },
}

/// Judge one rep: `None` if it passed. A panicked rep arrives as `None`.
pub fn judge(run: Option<&RunMetrics>, reference: u64) -> Option<Failure> {
    let Some(m) = run else {
        return Some(Failure::Panicked);
    };
    let leak = m.faults.unaccounted();
    if leak != 0 {
        return Some(Failure::LedgerLeak(leak));
    }
    let got = digest(m);
    (got != reference).then_some(Failure::DigestMismatch {
        got,
        want: reference,
    })
}

/// Reps attempted and failed, with the first few failures kept for the
/// report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Reps attempted.
    pub attempted: u64,
    /// Reps that failed.
    pub failed: u64,
    /// The first failures, for the report.
    pub first_failures: Vec<Failure>,
}

impl Tally {
    /// Count one rep's verdict.
    pub fn add(&mut self, verdict: Option<Failure>) {
        self.attempted += 1;
        if let Some(f) = verdict {
            self.failed += 1;
            if self.first_failures.len() < 5 {
                self.first_failures.push(f);
            }
        }
    }

    /// Failed reps ÷ reps attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;
    use workload::FaultMetrics;

    fn metrics() -> RunMetrics {
        RunMetrics {
            offered_rps: 1000.0,
            achieved_rps: 990.0,
            p50: SimDuration::from_micros(6),
            p99: SimDuration::from_micros(20),
            p999: SimDuration::from_micros(40),
            p99_short: SimDuration::from_micros(18),
            p99_long: SimDuration::from_micros(40),
            mean: SimDuration::from_micros(8),
            completed: 100,
            dropped: 0,
            preemptions: 3,
            worker_utilization: 0.5,
            stages: None,
            faults: FaultMetrics {
                attempts: 110,
                launched: 110,
                completed_all: 108,
                open_at_horizon: 2,
                ..FaultMetrics::default()
            },
        }
    }

    #[test]
    fn digest_covers_every_simulated_field_but_not_the_stage_report() {
        let m = metrics();
        let changed: [fn(&mut RunMetrics); 7] = [
            |m| m.mean = SimDuration::from_micros(9),
            |m| m.worker_utilization = 0.25,
            |m| m.achieved_rps = f64::from_bits(990.0f64.to_bits() + 1),
            |m| m.offered_rps = 1001.0,
            |m| m.p99_long = SimDuration::from_micros(41),
            |m| m.preemptions += 1,
            |m| m.faults.recovered = 1,
        ];
        for (i, change) in changed.iter().enumerate() {
            let mut other = m.clone();
            change(&mut other);
            assert_ne!(
                digest(&m),
                digest(&other),
                "change {i} left the digest alone"
            );
        }
        let mut probed = m.clone();
        probed.stages = Some(sim_core::StageReport::default());
        assert_eq!(digest(&m), digest(&probed));
    }

    #[test]
    fn failed_ratio_counts_mismatch_leak_and_panic() {
        let good = metrics();
        let reference = digest(&good);
        let mut mismatch = good.clone();
        mismatch.completed += 1;
        let mut leak = good.clone();
        leak.faults.launched += 1;

        let mut t = Tally::default();
        t.add(judge(Some(&good), reference));
        t.add(judge(Some(&good), reference));
        assert_eq!(t.failed_ratio(), 0.0);
        t.add(judge(Some(&mismatch), reference));
        t.add(judge(Some(&leak), reference));
        t.add(judge(None, reference));
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(t.failed_ratio(), 0.6);
        assert!(matches!(
            t.first_failures[0],
            Failure::DigestMismatch { want, .. } if want == reference
        ));
        assert_eq!(t.first_failures[1], Failure::LedgerLeak(1));
        assert_eq!(t.first_failures[2], Failure::Panicked);
    }

    #[test]
    fn a_leak_is_reported_even_when_the_digest_matches_a_leaky_reference() {
        let mut leak = metrics();
        leak.faults.launched += 1;
        assert_eq!(
            judge(Some(&leak), digest(&leak)),
            Some(Failure::LedgerLeak(1))
        );
    }
}
