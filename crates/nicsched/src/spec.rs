//! Policy specs: a scheduling policy named by a short textual spec and
//! parsed once, at configuration time, into a typed `Copy` value.
//!
//! ```text
//! spec     := key [ ':' param (',' param)* ]
//! param    := ident '=' value | value      // bare values extend the
//! value    := ident | integer | duration   // previous key's list
//! duration := integer ('ns'|'us'|'ms'|'s')
//! ```
//!
//! Examples: `"fcfs"`, `"srpt"`, `"edf:deadline=50us"`, `"wfq:w=4,1,1"`
//! (the bare `1,1` segments extend `w`'s value to the list `4,1,1`).
//!
//! [`PolicySpec`] holds the parsed parameters, so system configs stay
//! `Copy`/`Eq` while naming a parameterized policy, and
//! [`build`](PolicySpec::build) cannot fail. Its `Display` is the one
//! canonical spelling: defaults elide where the policy's own grammar
//! makes them optional, durations print in their largest exact unit, and
//! `PolicySpec::parse(&s.to_string()) == Ok(s)` for every spec.

use std::fmt;

use sim_core::SimDuration;

use crate::disciplines::{Cfcfs, Dfcfs, Edf, Srpt, WeightedFair};
use crate::policy::{ClassPriority, Fcfs, SchedPolicy, ShortestRemaining};

/// Every policy the grammar accepts, sorted by name, with the parameter
/// keys it allows.
pub const POLICIES: &[(&str, &[&str])] = &[
    ("cfcfs", &[]),
    ("class-priority", &["cutoff"]),
    ("dfcfs", &[]),
    ("edf", &["deadline", "stretch"]),
    ("fcfs", &[]),
    ("srf", &[]),
    ("srpt", &["gain", "boost", "floor"]),
    ("wfq", &["w"]),
];

/// Most lanes a `wfq:w=...` spec may weight. The weights live inline so
/// [`PolicySpec`] stays `Copy`; a longer list is a parse error.
pub const MAX_WFQ_LANES: usize = 8;

const SRPT_GAIN: u64 = 8;
const SRPT_BOOST: u64 = 200;
const SRPT_FLOOR: SimDuration = SimDuration::from_micros(1);
const EDF_DEADLINE: SimDuration = SimDuration::from_micros(50);
const CLASS_CUTOFF: SimDuration = SimDuration::from_micros(10);

/// A policy spec failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyError(String);

impl PolicyError {
    fn new(msg: impl Into<String>) -> PolicyError {
        PolicyError(msg.into())
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy spec error: {}", self.0)
    }
}

impl std::error::Error for PolicyError {}

/// The `k=v` parameters of one spec, borrowed from the input. Values are
/// lists so the grammar's bare-value continuation works: `w=4,1,1`
/// parses to `w -> ["4", "1", "1"]`.
struct Params<'a>(Vec<(&'a str, Vec<&'a str>)>);

impl<'a> Params<'a> {
    /// Parse the parameter section of a spec (everything after the first
    /// `:`), allowing only the keys in `allowed` — typo'd parameters fail
    /// loudly instead of silently falling back to defaults.
    fn parse(s: &'a str, policy: &str, allowed: &[&str]) -> Result<Params<'a>, PolicyError> {
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        if s.is_empty() {
            return Ok(Params(entries));
        }
        for seg in s.split(',') {
            let seg = seg.trim();
            if seg.is_empty() {
                return Err(PolicyError::new("empty parameter segment"));
            }
            match seg.split_once('=') {
                Some((k, v)) => {
                    let k = k.trim();
                    if k.is_empty() {
                        return Err(PolicyError::new(format!("missing key in `{seg}`")));
                    }
                    if entries.iter().any(|(ek, _)| *ek == k) {
                        return Err(PolicyError::new(format!("duplicate key `{k}`")));
                    }
                    entries.push((k, vec![v.trim()]));
                }
                None => match entries.last_mut() {
                    // Bare value: continuation of the previous key's list.
                    Some((_, vs)) => vs.push(seg),
                    None => {
                        return Err(PolicyError::new(format!(
                            "bare value `{seg}` with no preceding key"
                        )))
                    }
                },
            }
        }
        if let Some((k, _)) = entries.iter().find(|(k, _)| !allowed.contains(k)) {
            return Err(PolicyError::new(format!(
                "unknown key `{k}` for `{policy}` (allowed: {})",
                allowed.join(", ")
            )));
        }
        Ok(Params(entries))
    }

    fn values(&self, key: &str) -> Option<&[&'a str]> {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, vs)| vs.as_slice())
    }

    /// The single value of `key` read by `parse` (`what` names the
    /// expected form in the error), or `default` when `key` is absent.
    fn get<T>(
        &self,
        key: &str,
        default: T,
        what: &str,
        parse: fn(&str) -> Option<T>,
    ) -> Result<T, PolicyError> {
        match self.values(key) {
            None => Ok(default),
            Some([v]) => {
                parse(v).ok_or_else(|| PolicyError::new(format!("`{key}={v}` is not {what}")))
            }
            Some(vs) => Err(PolicyError::new(format!(
                "`{key}` takes one value, got {}",
                vs.len()
            ))),
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Duration suffixes and their length in nanoseconds, smallest first.
const UNITS: [(&str, u64); 4] = [
    ("ns", 1),
    ("us", 1_000),
    ("ms", 1_000_000),
    ("s", 1_000_000_000),
];

/// Parse an integer duration with an `ns`/`us`/`ms`/`s` suffix.
fn parse_duration(s: &str) -> Option<SimDuration> {
    let (digits, mult) = UNITS
        .iter()
        .find_map(|&(unit, mult)| Some((s.strip_suffix(unit)?, mult)))?;
    let n: u64 = digits.parse().ok()?;
    Some(SimDuration::from_nanos(n.checked_mul(mult)?))
}

/// Format a duration in the largest unit that represents it exactly, the
/// inverse of [`parse_duration`] (`SimDuration::from_micros(50)` →
/// `"50us"`).
fn fmt_duration(d: SimDuration) -> String {
    let ns = d.as_nanos();
    let (unit, mult) = UNITS
        .into_iter()
        .rev()
        .find(|&(_, mult)| ns != 0 && ns % mult == 0)
        .unwrap_or(UNITS[0]);
    format!("{}{unit}", ns / mult)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Fcfs,
    Cfcfs,
    Dfcfs,
    Srf,
    Srpt {
        gain: u64,
        boost: u64,
        floor: SimDuration,
    },
    Edf {
        deadline: SimDuration,
        stretch: u64,
    },
    ClassPriority {
        cutoff: SimDuration,
    },
    /// `weights[..lanes]` are the lane weights, each at least 1.
    Wfq {
        weights: [u64; MAX_WFQ_LANES],
        lanes: usize,
    },
}

/// A parsed, validated scheduling-policy spec (`"fcfs"`,
/// `"edf:deadline=50us"`): the policy's kind and its typed parameters.
///
/// System configs carry a `PolicySpec` instead of a policy value so they
/// remain `Copy`/`Eq`; the dispatcher calls [`build`](PolicySpec::build)
/// when the assembly is set up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicySpec(Kind);

impl PolicySpec {
    /// The paper's default policy: a single FIFO with tail re-enqueue.
    pub const FCFS: PolicySpec = PolicySpec(Kind::Fcfs);
    /// Shortest-remaining-first on wire-carried sizes.
    pub const SRF: PolicySpec = PolicySpec(Kind::Srf);
    /// SRPT on feedback-learned sizes, default parameters.
    pub const SRPT: PolicySpec = PolicySpec(Kind::Srpt {
        gain: SRPT_GAIN,
        boost: SRPT_BOOST,
        floor: SRPT_FLOOR,
    });

    /// Two-class priority: requests at or under `cutoff` go first.
    pub const fn class_priority(cutoff: SimDuration) -> PolicySpec {
        PolicySpec(Kind::ClassPriority { cutoff })
    }

    /// Parse and validate `s` against the grammar.
    pub fn parse(s: &str) -> Result<PolicySpec, PolicyError> {
        let s = s.trim();
        let (name, rest) = match s.split_once(':') {
            Some((k, r)) => (k.trim(), r),
            None => (s, ""),
        };
        if name.is_empty() {
            return Err(PolicyError::new("empty policy name"));
        }
        let Some(&(_, allowed)) = POLICIES.iter().find(|(n, _)| *n == name) else {
            return Err(PolicyError::new(format!("unknown policy `{name}`")));
        };
        let p = Params::parse(rest, name, allowed)?;
        let kind = match name {
            "fcfs" => Kind::Fcfs,
            "cfcfs" => Kind::Cfcfs,
            "dfcfs" => Kind::Dfcfs,
            "srf" => Kind::Srf,
            "srpt" => {
                let gain = p.get("gain", SRPT_GAIN, "an integer", parse_u64)?;
                let boost = p.get("boost", SRPT_BOOST, "an integer", parse_u64)?;
                let floor = p.get("floor", SRPT_FLOOR, "a duration", parse_duration)?;
                if gain == 0 {
                    return Err(PolicyError::new("`gain` must be >= 1"));
                }
                Kind::Srpt { gain, boost, floor }
            }
            "edf" => Kind::Edf {
                deadline: p.get("deadline", EDF_DEADLINE, "a duration", parse_duration)?,
                stretch: p.get("stretch", 0, "an integer", parse_u64)?,
            },
            "class-priority" => Kind::ClassPriority {
                cutoff: p.get("cutoff", CLASS_CUTOFF, "a duration", parse_duration)?,
            },
            _ => {
                let given = p.values("w").unwrap_or(&["1", "1"]);
                if given.len() > MAX_WFQ_LANES {
                    return Err(PolicyError::new(format!(
                        "`w` takes at most {MAX_WFQ_LANES} weights, got {}",
                        given.len()
                    )));
                }
                let mut weights = [0; MAX_WFQ_LANES];
                for (slot, v) in weights.iter_mut().zip(given) {
                    let w = v.parse::<u64>().map_err(|_| {
                        PolicyError::new(format!("`w` element `{v}` is not an integer"))
                    })?;
                    // A zero weight would starve its lane; it runs as 1.
                    *slot = w.max(1);
                }
                Kind::Wfq {
                    weights,
                    lanes: given.len(),
                }
            }
        };
        Ok(PolicySpec(kind))
    }

    /// Build the policy.
    pub fn build(&self) -> Box<dyn SchedPolicy> {
        match self.0 {
            Kind::Fcfs => Box::new(Fcfs::new()),
            Kind::Cfcfs => Box::new(Cfcfs::new()),
            Kind::Dfcfs => Box::new(Dfcfs::new()),
            Kind::Srf => Box::new(ShortestRemaining::new()),
            Kind::Srpt { gain, boost, floor } => Box::new(Srpt::with_params(gain, boost, floor)),
            Kind::Edf { deadline, stretch } => Box::new(Edf::with_stretch(deadline, stretch)),
            Kind::ClassPriority { cutoff } => Box::new(ClassPriority::new(cutoff)),
            Kind::Wfq { weights, lanes } => Box::new(WeightedFair::new(weights[..lanes].to_vec())),
        }
    }
}

/// The canonical spelling, for tables and CSV: parameters that change
/// behaviour always print, so `class-priority:cutoff=10us` and
/// `class-priority:cutoff=50us` stay distinguishable in reports.
impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Kind::Fcfs => f.write_str("fcfs"),
            Kind::Cfcfs => f.write_str("cfcfs"),
            Kind::Dfcfs => f.write_str("dfcfs"),
            Kind::Srf => f.write_str("srf"),
            Kind::Srpt { gain, boost, floor } => {
                let mut params = Vec::new();
                if gain != SRPT_GAIN {
                    params.push(format!("gain={gain}"));
                }
                if boost != SRPT_BOOST {
                    params.push(format!("boost={boost}"));
                }
                if floor != SRPT_FLOOR {
                    params.push(format!("floor={}", fmt_duration(floor)));
                }
                f.write_str("srpt")?;
                if !params.is_empty() {
                    write!(f, ":{}", params.join(","))?;
                }
                Ok(())
            }
            Kind::Edf { deadline, stretch } => {
                write!(f, "edf:deadline={}", fmt_duration(deadline))?;
                if stretch != 0 {
                    write!(f, ",stretch={stretch}")?;
                }
                Ok(())
            }
            Kind::ClassPriority { cutoff } => {
                write!(f, "class-priority:cutoff={}", fmt_duration(cutoff))
            }
            Kind::Wfq { weights, lanes } => {
                let ws: Vec<String> = weights[..lanes].iter().map(u64::to_string).collect();
                write!(f, "wfq:w={}", ws.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn spelled(s: &str) -> String {
        PolicySpec::parse(s).expect(s).to_string()
    }

    #[test]
    fn grammar_round_trips_the_examples() {
        for spec in [
            "fcfs",
            "cfcfs",
            "dfcfs",
            "srf",
            "srpt",
            "edf:deadline=50us",
            "wfq:w=4,1,1",
            "class-priority:cutoff=10us",
        ] {
            // The canonical spelling of every sweep spec is the spec.
            assert_eq!(spelled(spec), spec);
        }
        // Defaults elide where they are optional; explicit non-defaults
        // print.
        assert_eq!(spelled("srpt:gain=8,boost=200,floor=1us"), "srpt");
        assert_eq!(spelled("srpt:floor=2us"), "srpt:floor=2us");
        assert_eq!(spelled("edf"), "edf:deadline=50us");
        assert_eq!(spelled("edf:stretch=2"), "edf:deadline=50us,stretch=2");
        assert_eq!(spelled("wfq"), "wfq:w=1,1");
    }

    #[test]
    fn bare_values_extend_the_previous_key() {
        assert_eq!(spelled("wfq:w=4,1,1"), "wfq:w=4,1,1");
        assert_eq!(spelled("wfq:w=4, 1 ,1"), "wfq:w=4,1,1");
        assert_eq!(spelled("wfq:w=0,2"), "wfq:w=1,2", "zero weights run as 1");
    }

    #[test]
    fn unknown_policy_and_keys_are_rejected() {
        for (spec, why) in [
            ("zygos", "unknown policy"),
            ("fcfs:x=1", "fcfs takes no params"),
            ("edf:deadlnie=50us", "typo'd key"),
            ("srpt:gain=banana", "non-integer"),
            ("srpt:gain=0", "zero gain"),
            ("srpt:gain=8,9", "two values for one key"),
            ("edf:deadline=50", "missing unit"),
            ("edf:deadline=50us,deadline=5us", "duplicate key"),
            ("", "empty spec"),
            ("wfq:1,2", "bare value without a key"),
            ("wfq:w=", "empty weight"),
            ("wfq:w=1,,1", "empty segment"),
        ] {
            assert!(PolicySpec::parse(spec).is_err(), "{why}: `{spec}`");
        }
    }

    #[test]
    fn wfq_lanes_are_capped() {
        assert_eq!(MAX_WFQ_LANES, 8);
        assert_eq!(spelled("wfq:w=1,2,3,4,5,6,7,8"), "wfq:w=1,2,3,4,5,6,7,8");
        assert!(PolicySpec::parse("wfq:w=1,2,3,4,5,6,7,8,9").is_err());
    }

    #[test]
    fn durations_parse_and_format() {
        assert_eq!(parse_duration("50us"), Some(SimDuration::from_micros(50)));
        assert_eq!(parse_duration("10ms"), Some(SimDuration::from_millis(10)));
        assert_eq!(
            parse_duration("3s"),
            Some(SimDuration::from_nanos(3_000_000_000))
        );
        assert_eq!(parse_duration("250ns"), Some(SimDuration::from_nanos(250)));
        assert_eq!(parse_duration("50"), None);
        assert_eq!(parse_duration("-1us"), None);
        for d in [
            SimDuration::from_nanos(250),
            SimDuration::from_micros(50),
            SimDuration::from_millis(10),
            SimDuration::from_nanos(3_000_000_000),
            SimDuration::ZERO,
        ] {
            assert_eq!(parse_duration(&fmt_duration(d)), Some(d), "{d:?}");
        }
    }

    #[test]
    fn spec_is_copy_and_builds() {
        let spec = PolicySpec::parse("edf:deadline=25us").unwrap();
        let copy = spec; // Copy, no clone needed
        assert_eq!(spec, copy);
        assert_eq!(spec.to_string(), "edf:deadline=25us");
        let mut p = copy.build();
        p.enqueue(
            SimTime::ZERO,
            crate::Task::new(
                1,
                0,
                SimDuration::from_micros(5),
                SimTime::ZERO,
                SimTime::ZERO,
                0,
            ),
        );
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn invalid_specs_fail_at_parse_not_build() {
        assert!(PolicySpec::parse("edf:deadline=oops").is_err());
        assert!(PolicySpec::parse("nope").is_err());
    }

    #[test]
    fn constants_match_their_spellings() {
        for (spec, s) in [
            (PolicySpec::FCFS, "fcfs"),
            (PolicySpec::SRF, "srf"),
            (PolicySpec::SRPT, "srpt"),
            (
                PolicySpec::class_priority(SimDuration::from_micros(10)),
                "class-priority:cutoff=10us",
            ),
        ] {
            assert_eq!(PolicySpec::parse(s), Ok(spec));
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn every_listed_policy_parses() {
        let names: Vec<&str> = POLICIES.iter().map(|(n, _)| *n).collect();
        for required in ["fcfs", "cfcfs", "dfcfs", "srpt", "edf", "wfq"] {
            assert!(names.contains(&required), "missing `{required}`");
        }
        for name in &names {
            let spec = PolicySpec::parse(name).expect(name);
            assert!(spec.to_string().starts_with(name), "{spec}");
        }
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted");
    }
}
