//! Seeded mutation test for [`PolicySpec::parse`]: every registered spec,
//! truncated, with characters replaced, inserted and deleted, and with
//! parameter values swapped for hostile ones (overflowing integers, zero,
//! unknown units, non-ASCII). Every mutant must come back `Ok` or `Err` —
//! a panic fails the test — and an accepted spec must build.

use nicsched::PolicySpec;

/// SplitMix64: a tiny deterministic generator, so the mutant stream is
/// the same on every run.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

const SEEDS: &[&str] = &[
    "fcfs",
    "cfcfs",
    "dfcfs",
    "srf",
    "srpt",
    "srpt:gain=8,boost=200,floor=1us",
    "edf:deadline=50us",
    "edf:deadline=50us,stretch=2",
    "wfq:w=4,1,1",
    "class-priority:cutoff=10us",
];

/// Characters the grammar gives meaning to, plus noise.
const ALPHABET: &[&str] = &[
    ":", "=", ",", " ", "0", "1", "9", "-", "+", ".", "e", "s", "u", "n", "m", "w", "x", "é", "∞",
    "\u{0}", "\t",
];

/// Values that stress number and duration parsing.
const HOSTILE: &[&str] = &[
    "",
    "0",
    "0ns",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551615s",
    "99999999999999999999us",
    "1e309",
    "NaN",
    "1.5us",
    "5 us",
    "us",
    "s",
    "٣us",
    "0,0,0",
    "1,,1",
];

fn mutate(rng: &mut Mix) -> String {
    let mut chars: Vec<String> = rng.pick(SEEDS).chars().map(String::from).collect();
    for _ in 0..=rng.below(3) {
        let at = rng.below(chars.len() + 1);
        match rng.below(5) {
            0 => chars.truncate(at),
            1 if at < chars.len() => chars[at] = rng.pick(ALPHABET).to_string(),
            2 => chars.insert(at, rng.pick(ALPHABET).to_string()),
            3 if at < chars.len() => {
                chars.remove(at);
            }
            _ => {
                // Swap a parameter value for a hostile one.
                let s: String = chars.concat();
                let Some(eq) = s.find('=') else { continue };
                let end = s[eq..].find(',').map_or(s.len(), |i| eq + i);
                let mutated = format!("{}{}{}", &s[..=eq], rng.pick(HOSTILE), &s[end..]);
                chars = mutated.chars().map(String::from).collect();
            }
        }
    }
    chars.concat()
}

#[test]
fn mutated_policy_specs_never_panic_the_parser() {
    for seed in SEEDS {
        assert!(PolicySpec::parse(seed).is_ok(), "`{seed}` parses");
    }
    let mut rng = Mix(0x706f_6c69_6379_0001);
    let (mut ok, mut err) = (0u32, 0u32);
    for _ in 0..5_000 {
        let spec = mutate(&mut rng);
        match PolicySpec::parse(&spec) {
            Ok(parsed) => {
                let _ = parsed.build();
                ok += 1;
            }
            Err(_) => err += 1,
        }
    }
    assert!(err > 1_000, "mutations must bite: {err} rejected");
    assert!(ok > 100, "some mutants stay valid: {ok} accepted");
}
