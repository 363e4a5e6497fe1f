//! Typed diagnostics and their human / JSON renderings.

use std::fmt;
use std::fmt::Write as _;

/// Every rule the engine knows, including the two meta-rules that police the
/// `lint:allow` annotations themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `Instant::now` / `SystemTime` outside the audited `obs::WallClock`.
    NoWallClock,
    /// Iterating a `HashMap`/`HashSet` in a simulation-critical crate.
    NoHashmapIteration,
    /// `==` / `!=` against a float operand outside tests.
    NoFloatEq,
    /// `unwrap()` / `expect()` in non-test library code.
    NoUnwrapInLib,
    /// Crate root missing `#![forbid(unsafe_code)]`.
    ForbidUnsafePresent,
    /// `thread::sleep` in a simulation-critical crate.
    NoThreadSleep,
    /// `thread::current()` / `ThreadId` in a simulation-critical crate.
    NoThreadIdentity,
    /// `Ordering::Relaxed` without a written justification.
    AtomicsOrderingAnnotated,
    /// A growable-buffer constructor (`Vec::new` & friends) in a sink module.
    NoUnboundedSink,
    /// A nondeterminism source reachable from a sim-critical crate's public
    /// API through the call graph (interprocedural).
    DeterminismTaint,
    /// A panic site reachable from a DES event handler (interprocedural).
    PanicPath,
    /// Two mutexes acquired in inconsistent order across the workspace.
    LockOrder,
    /// A `// relaxed:` note that does not sit on the atomic operation's line.
    RelaxedNoteOnOperation,
    /// A `lint:allow` with no `-- <justification>` suffix.
    AllowMissingJustification,
    /// A `lint:allow` naming a rule id the engine does not know.
    AllowUnknownRule,
}

impl RuleId {
    /// Every rule, in catalogue order.
    pub const ALL: [RuleId; 15] = [
        RuleId::NoWallClock,
        RuleId::NoHashmapIteration,
        RuleId::NoFloatEq,
        RuleId::NoUnwrapInLib,
        RuleId::ForbidUnsafePresent,
        RuleId::NoThreadSleep,
        RuleId::NoThreadIdentity,
        RuleId::AtomicsOrderingAnnotated,
        RuleId::NoUnboundedSink,
        RuleId::DeterminismTaint,
        RuleId::PanicPath,
        RuleId::LockOrder,
        RuleId::RelaxedNoteOnOperation,
        RuleId::AllowMissingJustification,
        RuleId::AllowUnknownRule,
    ];

    /// The kebab-case id used in diagnostics and `lint:allow(...)`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::NoWallClock => "no-wall-clock",
            RuleId::NoHashmapIteration => "no-hashmap-iteration",
            RuleId::NoFloatEq => "no-float-eq",
            RuleId::NoUnwrapInLib => "no-unwrap-in-lib",
            RuleId::ForbidUnsafePresent => "forbid-unsafe-present",
            RuleId::NoThreadSleep => "no-thread-sleep",
            RuleId::NoThreadIdentity => "no-thread-identity",
            RuleId::AtomicsOrderingAnnotated => "atomics-ordering-annotated",
            RuleId::NoUnboundedSink => "no-unbounded-sink",
            RuleId::DeterminismTaint => "determinism-taint",
            RuleId::PanicPath => "panic-path",
            RuleId::LockOrder => "lock-order",
            RuleId::RelaxedNoteOnOperation => "relaxed-note-on-operation",
            RuleId::AllowMissingJustification => "allow-missing-justification",
            RuleId::AllowUnknownRule => "allow-unknown-rule",
        }
    }

    /// Inverse of [`RuleId::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// One-line description for `--list-rules` and the docs.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            RuleId::NoWallClock => {
                "Instant::now/SystemTime banned outside the audited obs::WallClock entry point; \
                 simulated time must come from the DES clock"
            }
            RuleId::NoHashmapIteration => {
                "iterating HashMap/HashSet in sim-critical crates is nondeterministic per process \
                 (RandomState); use BTreeMap/BTreeSet or sort before iterating"
            }
            RuleId::NoFloatEq => {
                "==/!= on float operands outside tests; use an epsilon, an integer \
                 re-expression, or bit comparison"
            }
            RuleId::NoUnwrapInLib => {
                "unwrap()/expect() in non-test library code turns recoverable errors into panics"
            }
            RuleId::ForbidUnsafePresent => "every crate root must keep #![forbid(unsafe_code)]",
            RuleId::NoThreadSleep => {
                "thread::sleep in sim-critical crates couples results to the host scheduler"
            }
            RuleId::NoThreadIdentity => {
                "thread::current()/ThreadId in sim-critical crates lets results depend on which \
                 OS thread of the VSCC worker pool ran a check; validation must be \
                 pool-size-invariant"
            }
            RuleId::AtomicsOrderingAnnotated => {
                "every Ordering::Relaxed needs a written justification: a `// relaxed: <why>` \
                 note on the operation, or a justified lint:allow"
            }
            RuleId::NoUnboundedSink => {
                "growable buffers (Vec/VecDeque::new/with_capacity) in sink modules grow without \
                 bound under load; sinks must be bounded rings with an eviction counter"
            }
            RuleId::DeterminismTaint => {
                "a nondeterminism source (hash-ordered iteration, thread identity, \
                 pointer-to-int cast) in a helper crate is reachable from a sim-critical \
                 crate's public API; the diagnostic carries the full call chain"
            }
            RuleId::PanicPath => {
                "a panic site (panic!/unreachable!/todo!/unimplemented! or indexing) is \
                 reachable from a DES event handler; a poisoned message must surface as an \
                 error, not abort the event loop mid-run"
            }
            RuleId::LockOrder => {
                "two mutexes are acquired in opposite orders somewhere in the workspace, \
                 which can deadlock the VSCC worker pool or the metrics exporter"
            }
            RuleId::RelaxedNoteOnOperation => {
                "a Relaxed atomic is annotated, but its `// relaxed:` note does not sit on \
                 the line of the atomic operation itself"
            }
            RuleId::AllowMissingJustification => "every lint:allow must carry `-- <justification>`",
            RuleId::AllowUnknownRule => "lint:allow names a rule id the engine does not know",
        }
    }

    /// Meta-rules police the annotations and cannot themselves be allowed.
    #[must_use]
    pub fn suppressible(self) -> bool {
        !matches!(
            self,
            RuleId::AllowMissingJustification | RuleId::AllowUnknownRule
        )
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One step of supporting evidence attached to a diagnostic — for the
/// interprocedural rules, the call chain from the sink down to the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What this step shows.
    pub message: String,
}

/// One violation at one source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (characters).
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// What is wrong, in one sentence.
    pub message: String,
    /// How to fix it, when the rule has a canonical remedy.
    pub suggestion: Option<String>,
    /// Supporting evidence (call chains for interprocedural rules).
    pub notes: Vec<Note>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        for n in &self.notes {
            write!(f, "\n    note: {}:{}: {}", n.file, n.line, n.message)?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n    help: {s}")?;
        }
        Ok(())
    }
}

/// Everything one engine run produced.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Unsuppressed violations, sorted by (file, line, col, rule).
    pub violations: Vec<Diagnostic>,
    /// Count of diagnostics suppressed by a justified `lint:allow`.
    pub suppressed: usize,
    /// Suppressions broken down per rule (for the ratchet file).
    pub suppressed_by_rule: std::collections::BTreeMap<RuleId, usize>,
    /// Number of files checked.
    pub checked_files: usize,
}

impl LintReport {
    /// True when CI should pass.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The `--json` rendering (schema `fabricsim-lint/v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"fabricsim-lint/v1\",\n");
        push_kv(&mut out, "checked_files", &self.checked_files.to_string());
        push_kv(&mut out, "suppressed", &self.suppressed.to_string());
        if !self.suppressed_by_rule.is_empty() {
            let mut obj = String::from("{");
            for (i, (rule, n)) in self.suppressed_by_rule.iter().enumerate() {
                if i > 0 {
                    obj.push_str(", ");
                }
                let _ = write!(obj, "{}: {n}", json_string(rule.as_str()));
            }
            obj.push('}');
            push_kv(&mut out, "suppressed_by_rule", &obj);
        }
        push_kv(
            &mut out,
            "violation_count",
            &self.violations.len().to_string(),
        );
        out.push_str("  \"violations\": [");
        for (i, d) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}",
                json_string(&d.file),
                d.line,
                d.col,
                json_string(d.rule.as_str()),
                json_string(&d.message),
            );
            if let Some(s) = &d.suggestion {
                let _ = write!(out, ", \"suggestion\": {}", json_string(s));
            }
            if !d.notes.is_empty() {
                out.push_str(", \"notes\": [");
                for (k, n) in d.notes.iter().enumerate() {
                    if k > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"file\": {}, \"line\": {}, \"message\": {}}}",
                        json_string(&n.file),
                        n.line,
                        json_string(&n.message),
                    );
                }
                out.push(']');
            }
            out.push('}');
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The human rendering: one block per violation plus a summary line.
    #[must_use]
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for d in &self.violations {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "fabricsim-lint: {} file(s) checked, {} violation(s), {} suppressed by lint:allow",
            self.checked_files,
            self.violations.len(),
            self.suppressed
        );
        out
    }
}

fn push_kv(out: &mut String, key: &str, raw_value: &str) {
    let _ = writeln!(out, "  \"{key}\": {raw_value},");
}

/// Minimal JSON string escaping (the repo-wide zero-dependency subset).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.as_str()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn display_is_file_line_col_rule() {
        let d = Diagnostic {
            file: "crates/core/src/sim.rs".into(),
            line: 7,
            col: 13,
            rule: RuleId::NoWallClock,
            message: "wall-clock read".into(),
            suggestion: Some("use the DES clock".into()),
            notes: Vec::new(),
        };
        let s = d.to_string();
        assert!(s.starts_with("crates/core/src/sim.rs:7:13: [no-wall-clock]"));
        assert!(s.contains("help: use the DES clock"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = LintReport {
            violations: vec![Diagnostic {
                file: "a.rs".into(),
                line: 1,
                col: 2,
                rule: RuleId::NoFloatEq,
                message: "float \"eq\"".into(),
                suggestion: None,
                notes: Vec::new(),
            }],
            suppressed: 3,
            suppressed_by_rule: std::collections::BTreeMap::new(),
            checked_files: 9,
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"fabricsim-lint/v1\""));
        assert!(json.contains("\"rule\": \"no-float-eq\""));
        assert!(json.contains("\\\"eq\\\""));
        assert!(json.contains("\"checked_files\": 9"));
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("q\"q"), "\"q\\\"q\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
