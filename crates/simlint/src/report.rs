//! Report assembly, JSON output, and the findings baseline gate.
//!
//! The gate mirrors the perf gate (`BENCH_4.json` + `perf --compare`):
//! a checked-in `SIMLINT_BASELINE.json` records the accepted standing
//! findings (normally none) and the per-(file, rule) waiver counts.
//! `--compare` fails when a (file, rule) pair gains findings or waivers
//! relative to the baseline — lines may drift, debt may not grow — and
//! merely notes shrinkage, which `--write-baseline` then locks in. The
//! ledger ratchets one way.
//!
//! Everything here is dependency-free: a hand-rolled JSON emitter with
//! proper string escaping, and a small recursive-descent JSON parser
//! (objects, arrays, strings with escapes, numbers, booleans, null) for
//! reading the baseline back.

use std::collections::BTreeMap;

use crate::Finding;

/// One well-formed waiver, for the ledger.
#[derive(Debug, Clone)]
pub struct WaiverRecord {
    pub file: String,
    pub line: usize,
    pub rules: Vec<String>,
    pub block: bool,
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub waivers: Vec<WaiverRecord>,
}

impl Report {
    /// Findings per (file, rule), for line-tolerant baseline comparison.
    pub fn finding_counts(&self) -> BTreeMap<(String, String), usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts
                .entry((f.file.clone(), f.rule.to_string()))
                .or_insert(0) += 1;
        }
        counts
    }

    /// Waivers per (file, rule): each waiver contributes one per rule it
    /// names.
    pub fn waiver_counts(&self) -> BTreeMap<(String, String), usize> {
        let mut counts = BTreeMap::new();
        for w in &self.waivers {
            for rule in &w.rules {
                *counts.entry((w.file.clone(), rule.clone())).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The full machine-readable report (`--json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"waivers\": [\n");
        for (i, w) in self.waivers.iter().enumerate() {
            let rules: Vec<String> = w.rules.iter().map(|r| json_str(r)).collect();
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rules\": [{}], \"block\": {}}}{}\n",
                json_str(&w.file),
                w.line,
                rules.join(", "),
                w.block,
                if i + 1 < self.waivers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The baseline document (`--write-baseline`): standing findings
    /// without messages (lines drift; messages churn) plus the waiver
    /// ledger. `schema: 4` marks the finding vocabulary with
    /// workspace-interprocedural taint; `compare` ignores the key, so
    /// older baselines still parse.
    pub fn to_baseline_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 4,\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"waiver_counts\": {\n");
        let counts = self.waiver_counts();
        let n = counts.len();
        for (i, ((file, rule), count)) in counts.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}{}\n",
                json_str(&format!("{file}:{rule}")),
                count,
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// SARIF 2.1.0 (`--sarif`): one run, rules from the registry, one
    /// `error`-level result per finding. Minimal but valid — enough for
    /// `github/codeql-action/upload-sarif` to render findings as PR
    /// annotations in the Security tab.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \
             \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \
             \"tool\": {\n        \"driver\": {\n          \
             \"name\": \"simlint\",\n          \
             \"informationUri\": \"https://example.invalid/simlint\",\n          \
             \"rules\": [\n",
        );
        let n_rules = crate::rules::TABLE.len();
        for (i, r) in crate::rules::TABLE.iter().enumerate() {
            out.push_str(&format!(
                "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
                 \"fullDescription\": {{\"text\": {}}}}}{}\n",
                json_str(r.name),
                json_str(&r.fires_on.replace('\n', " ")),
                json_str(&r.detail.replace('\n', " ")),
                if i + 1 < n_rules { "," } else { "" }
            ));
        }
        out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"ruleId\": {}, \"level\": \"error\", \"message\": \
                 {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
                 {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": \
                 {{\"startLine\": {}}}}}}}]}}{}\n",
                json_str(f.rule),
                json_str(&f.message),
                json_str(&f.file),
                f.line,
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n    }\n  ]\n}\n");
        out
    }

    /// GitHub Actions workflow-command annotations, one per finding.
    pub fn to_annotations(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "::error file={},line={}::[{}] {}\n",
                f.file,
                f.line,
                f.rule,
                gha_escape(&f.message)
            ));
        }
        out
    }
}

/// Compare a report against baseline JSON text. `Ok` carries notes
/// (shrinkage worth refreshing), `Err` carries gate failures.
pub fn compare(report: &Report, baseline_text: &str) -> Result<Vec<String>, Vec<String>> {
    let value =
        parse_json(baseline_text).map_err(|e| vec![format!("baseline is not valid JSON: {e}")])?;
    let mut base_findings: BTreeMap<(String, String), usize> = BTreeMap::new();
    for item in value
        .get("findings")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let file = item.get("file").and_then(Value::as_str).unwrap_or_default();
        let rule = item.get("rule").and_then(Value::as_str).unwrap_or_default();
        *base_findings
            .entry((file.to_string(), rule.to_string()))
            .or_insert(0) += 1;
    }
    let mut base_waivers: BTreeMap<(String, String), usize> = BTreeMap::new();
    if let Some(Value::Object(map)) = value.get("waiver_counts") {
        for (key, count) in map {
            if let (Some((file, rule)), Some(n)) = (key.rsplit_once(':'), count.as_usize()) {
                base_waivers.insert((file.to_string(), rule.to_string()), n);
            }
        }
    }

    let mut errors = Vec::new();
    let mut notes = Vec::new();
    let cur_findings = report.finding_counts();
    for ((file, rule), count) in &cur_findings {
        let base = base_findings
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if *count > base {
            errors.push(format!(
                "new findings: {file} has {count} `{rule}` finding(s), baseline allows {base}"
            ));
        }
    }
    for ((file, rule), base) in &base_findings {
        let cur = cur_findings
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if cur < *base {
            notes.push(format!(
                "{file}: `{rule}` findings dropped {base} -> {cur}; refresh with --write-baseline"
            ));
        }
    }
    let cur_waivers = report.waiver_counts();
    for ((file, rule), count) in &cur_waivers {
        let base = base_waivers
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if *count > base {
            errors.push(format!(
                "waiver ledger grew: {file} has {count} `{rule}` waiver(s), baseline allows {base}"
            ));
        }
    }
    for ((file, rule), base) in &base_waivers {
        let cur = cur_waivers
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if cur < *base {
            notes.push(format!(
                "{file}: `{rule}` waivers dropped {base} -> {cur}; refresh with --write-baseline"
            ));
        }
    }
    if errors.is_empty() {
        Ok(notes)
    } else {
        Err(errors)
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn gha_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

// ---------------------------------------------------------------------------
// Mini JSON parser (read-side, for the baseline)
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{c}` at offset {pos}"))
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key is not a string at offset {pos}")),
                };
                expect(b, pos, ':')?;
                map.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    '"' => return Ok(Value::Str(s)),
                    '\\' => {
                        let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                        *pos += 1;
                        match esc {
                            '"' => s.push('"'),
                            '\\' => s.push('\\'),
                            '/' => s.push('/'),
                            'n' => s.push('\n'),
                            'r' => s.push('\r'),
                            't' => s.push('\t'),
                            'b' => s.push('\u{8}'),
                            'f' => s.push('\u{c}'),
                            'u' => {
                                let hex: String =
                                    b.get(*pos..*pos + 4).ok_or("short \\u")?.iter().collect();
                                *pos += 4;
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u{hex}"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => return Err(format!("bad escape \\{other}")),
                        }
                    }
                    c => s.push(c),
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while b
                .get(*pos)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number `{text}`"))
        }
        Some('t')
            if b.get(*pos..*pos + 4)
                .is_some_and(|s| s.iter().collect::<String>() == "true") =>
        {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some('f')
            if b.get(*pos..*pos + 5)
                .is_some_and(|s| s.iter().collect::<String>() == "false") =>
        {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some('n')
            if b.get(*pos..*pos + 4)
                .is_some_and(|s| s.iter().collect::<String>() == "null") =>
        {
            *pos += 4;
            Ok(Value::Null)
        }
        _ => Err(format!("unexpected character at offset {pos}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: usize, rule: &'static str) -> Finding {
        Finding {
            file: file.into(),
            line,
            rule,
            message: "m \"quoted\"\nsecond".into(),
        }
    }

    fn report_with(findings: Vec<Finding>, waivers: Vec<WaiverRecord>) -> Report {
        Report {
            files_scanned: 3,
            findings,
            waivers,
        }
    }

    #[test]
    fn json_roundtrips_through_own_parser() {
        let report = report_with(
            vec![finding("a.rs", 7, "unordered")],
            vec![WaiverRecord {
                file: "b.rs".into(),
                line: 2,
                rules: vec!["wall-clock".into()],
                block: true,
            }],
        );
        let value = parse_json(&report.to_json()).expect("valid JSON");
        assert_eq!(
            value.get("files_scanned").and_then(Value::as_usize),
            Some(3)
        );
        let f = &value.get("findings").and_then(Value::as_array).unwrap()[0];
        assert_eq!(f.get("file").and_then(Value::as_str), Some("a.rs"));
        assert_eq!(f.get("line").and_then(Value::as_usize), Some(7));
        assert_eq!(
            f.get("message").and_then(Value::as_str),
            Some("m \"quoted\"\nsecond")
        );
        let baseline = parse_json(&report.to_baseline_json()).expect("valid baseline");
        assert_eq!(
            baseline
                .get("waiver_counts")
                .and_then(|v| v.get("b.rs:wall-clock"))
                .and_then(Value::as_usize),
            Some(1)
        );
    }

    #[test]
    fn compare_passes_on_identical_baseline() {
        let report = report_with(vec![finding("a.rs", 7, "unordered")], vec![]);
        let baseline = report.to_baseline_json();
        assert_eq!(compare(&report, &baseline), Ok(vec![]));
    }

    #[test]
    fn compare_fails_on_new_finding() {
        let clean = report_with(vec![], vec![]);
        let baseline = clean.to_baseline_json();
        let dirty = report_with(vec![finding("a.rs", 7, "unordered")], vec![]);
        let errs = compare(&dirty, &baseline).unwrap_err();
        assert!(errs[0].contains("new findings"), "{errs:?}");
    }

    #[test]
    fn compare_tolerates_line_drift() {
        let before = report_with(vec![finding("a.rs", 7, "unordered")], vec![]);
        let baseline = before.to_baseline_json();
        let after = report_with(vec![finding("a.rs", 9, "unordered")], vec![]);
        assert!(compare(&after, &baseline).is_ok());
    }

    #[test]
    fn compare_fails_on_waiver_growth_and_notes_shrink() {
        let w = |n: usize| {
            (0..n)
                .map(|i| WaiverRecord {
                    file: "a.rs".into(),
                    line: i + 1,
                    rules: vec!["unordered".into()],
                    block: false,
                })
                .collect::<Vec<_>>()
        };
        let baseline = report_with(vec![], w(1)).to_baseline_json();
        let grown = report_with(vec![], w(2));
        let errs = compare(&grown, &baseline).unwrap_err();
        assert!(errs[0].contains("waiver ledger grew"), "{errs:?}");
        let shrunk = report_with(vec![], w(0));
        let notes = compare(&shrunk, &baseline).unwrap();
        assert!(notes[0].contains("refresh"), "{notes:?}");
    }

    #[test]
    fn annotations_escape_newlines() {
        let report = report_with(vec![finding("a.rs", 7, "unordered")], vec![]);
        let ann = report.to_annotations();
        assert!(ann.starts_with("::error file=a.rs,line=7::[unordered]"));
        assert!(ann.contains("%0A"));
        assert!(!ann.trim_end().contains('\n') || ann.lines().count() == 1);
    }

    #[test]
    fn sarif_is_valid_json_with_rules_and_results() {
        let report = report_with(vec![finding("a.rs", 7, "unordered")], vec![]);
        let value = parse_json(&report.to_sarif()).expect("valid SARIF JSON");
        assert_eq!(value.get("version").and_then(Value::as_str), Some("2.1.0"));
        let run = &value.get("runs").and_then(Value::as_array).unwrap()[0];
        let rules = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(rules.len(), crate::rules::TABLE.len());
        let results = run.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(
            results[0].get("ruleId").and_then(Value::as_str),
            Some("unordered")
        );
        let loc = &results[0]
            .get("locations")
            .and_then(Value::as_array)
            .unwrap()[0];
        assert_eq!(
            loc.get("physicalLocation")
                .and_then(|p| p.get("region"))
                .and_then(|r| r.get("startLine"))
                .and_then(Value::as_usize),
            Some(7)
        );
    }

    #[test]
    fn baseline_declares_schema_4() {
        let report = report_with(vec![], vec![]);
        let value = parse_json(&report.to_baseline_json()).unwrap();
        assert_eq!(value.get("schema").and_then(Value::as_usize), Some(4));
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": }").is_err());
    }
}
