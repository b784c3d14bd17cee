//! CPU core modeling: identity, speed, and cycle↔time conversion.
//!
//! The evaluation platform has two very different processors: the host's
//! 2.3 GHz Xeon E5-2658 cores running workers, and the Stingray's ARM A72
//! cores running the offloaded networking subsystem and dispatcher (§3.3,
//! §4). The paper attributes the offload dispatcher bottleneck partly to
//! "the slower ARM CPU" (§4.1); we capture that with a frequency plus a
//! per-core *work factor* that scales the cost of scheduler operations.

use core::fmt;

use sim_core::stats::BusyTracker;
use sim_core::{SimDuration, SimTime};

/// Identifies one core within the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// What kind of silicon a core is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CoreKind {
    /// Host x86 core (Xeon E5-2658 class).
    HostX86,
    /// SmartNIC ARM core (Stingray A72 class).
    NicArm,
}

/// Static description of a core.
#[derive(Clone, Copy, Debug)]
pub struct CoreSpec {
    /// Which processor this core belongs to.
    pub kind: CoreKind,
    /// Clock frequency in Hz.
    pub freq_hz: u64,
    /// Multiplier on the *cycle counts* of scheduler/network operations
    /// relative to the host baseline. 1.0 for host cores; >1.0 for the ARM
    /// cores, which retire the same DPDK/dispatch work in more cycles
    /// (in-order-ish A72 vs wide Xeon).
    pub work_factor: f64,
}

impl CoreSpec {
    /// The evaluation host: 2.3 GHz Xeon (§4).
    pub fn host_x86() -> CoreSpec {
        CoreSpec {
            kind: CoreKind::HostX86,
            freq_hz: 2_300_000_000,
            work_factor: 1.0,
        }
    }

    /// A Stingray ARM A72 core at 3.0 GHz with a 3× work factor — chosen so
    /// the offloaded dispatcher pipeline saturates around 1.4–1.5 M req/s on
    /// 1 µs requests, matching Figures 3 and 6 (see DESIGN.md §4).
    pub fn nic_arm() -> CoreSpec {
        CoreSpec {
            kind: CoreKind::NicArm,
            freq_hz: 3_000_000_000,
            work_factor: 3.0,
        }
    }

    /// Convert a host-baseline cycle count into time on this core,
    /// applying the work factor.
    pub fn cycles(&self, host_cycles: u64) -> SimDuration {
        let eff = host_cycles as f64 * self.work_factor;
        let hz = self.freq_hz as f64;
        SimDuration::from_nanos_f64(eff * 1e9 / hz)
    }

    /// Convert a raw cycle count on this core (no work factor) into time.
    pub fn raw_cycles(&self, cycles: u64) -> SimDuration {
        let cyc = cycles as f64;
        let hz = self.freq_hz as f64;
        SimDuration::from_nanos_f64(cyc * 1e9 / hz)
    }

    /// Convert a duration into raw cycles on this core.
    pub fn to_cycles(&self, d: SimDuration) -> u64 {
        (d.as_secs_f64() * self.freq_hz as f64).round() as u64
    }
}

/// Dynamic state of one simulated core: busy/idle tracking and counters.
#[derive(Debug, Clone)]
pub struct Core {
    /// Identity.
    pub id: CoreId,
    /// Static description.
    pub spec: CoreSpec,
    busy: BusyTracker,
    /// Requests fully executed on this core.
    pub requests_run: u64,
}

impl Core {
    /// Create an idle core at `at`.
    pub fn new(id: CoreId, spec: CoreSpec, at: SimTime) -> Core {
        Core {
            id,
            spec,
            busy: BusyTracker::new(at),
            requests_run: 0,
        }
    }

    /// Whether the core is currently executing something.
    pub fn is_busy(&self) -> bool {
        self.busy.is_busy()
    }

    /// Mark the start of execution.
    pub fn set_busy(&mut self, at: SimTime) {
        self.busy.set_busy(at);
    }

    /// Mark the end of execution.
    pub fn set_idle(&mut self, at: SimTime) {
        self.busy.set_idle(at);
    }

    /// Utilization in `[0, 1]` since creation.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// Total busy time since creation.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        self.busy.busy_until(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cycle_conversion() {
        let host = CoreSpec::host_x86();
        // 2300 cycles at 2.3 GHz = 1 µs.
        assert_eq!(host.cycles(2300), SimDuration::from_micros(1));
        // Paper §3.4.4: 1272-cycle interrupt delivery ≈ 553 ns at 2.3 GHz.
        assert_eq!(host.cycles(1272).as_nanos(), 553);
        // 4193 cycles ≈ 1823 ns.
        assert_eq!(host.cycles(4193).as_nanos(), 1823);
    }

    #[test]
    fn arm_work_factor_slows_operations() {
        let host = CoreSpec::host_x86();
        let arm = CoreSpec::nic_arm();
        // The same logical operation takes longer on the ARM core even
        // though its clock is nominally faster.
        assert!(arm.cycles(1000) > host.cycles(1000));
    }

    #[test]
    fn raw_cycles_ignore_work_factor() {
        let arm = CoreSpec::nic_arm();
        assert_eq!(arm.raw_cycles(3000), SimDuration::from_micros(1));
    }

    #[test]
    fn to_cycles_round_trips() {
        let host = CoreSpec::host_x86();
        let d = SimDuration::from_micros(10);
        assert_eq!(host.to_cycles(d), 23_000);
        assert_eq!(host.raw_cycles(host.to_cycles(d)), d);
    }

    #[test]
    fn busy_accounting() {
        let t0 = SimTime::ZERO;
        let mut c = Core::new(CoreId(0), CoreSpec::host_x86(), t0);
        assert!(!c.is_busy());
        c.set_busy(SimTime::from_micros(1));
        c.set_idle(SimTime::from_micros(4));
        assert_eq!(
            c.busy_time(SimTime::from_micros(10)),
            SimDuration::from_micros(3)
        );
        assert!((c.utilization(SimTime::from_micros(10)) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId(5).to_string(), "core5");
    }
}
