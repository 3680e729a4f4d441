//! `cargo run -p xtask -- lint` — repository lints that rustc and clippy do
//! not cover, hand-rolled over the source text (the container has no `syn`,
//! and these checks only need line/token granularity):
//!
//! 1. **SAFETY comments** — every `unsafe` token in `vendor/tokio/src` must
//!    have a `// SAFETY:` comment on the same line or within the few lines
//!    above it. The vendored runtime is the only unsafe code in the
//!    workspace; each site must say why it is sound.
//! 2. **`unsafe_op_in_unsafe_fn`** — `vendor/tokio/src/lib.rs` must carry
//!    `#![deny(unsafe_op_in_unsafe_fn)]`, so an unsafe fn body cannot hide
//!    unsafe operations without their own block (and comment, per lint 1).
//! 3. **Blocking calls in async code** — inside `async fn` bodies and
//!    `async` blocks, `thread::sleep` and the blocking `std::net` connect /
//!    bind calls stall a reactor worker and are rejected. Test modules are
//!    exempt (test scaffolding blocks on purpose); a deliberate production
//!    use is escaped with an `xtask:allow-blocking` comment on the same
//!    line, which the lint counts and reports.
//!
//! Exit status is non-zero if any lint fails, so CI can gate on it.
//!
//! `cargo run -p xtask -- e11-gate <baseline.json> <current.json>` is the
//! E11 latency-regression gate: it compares the current smoke run's
//! `latency_p99_us` cells against the committed `BENCH_E11.json` baseline
//! and fails on a greater-than-2x regression in any matching cell. The two
//! reports' environment rows must be identical first — p99 numbers from
//! different machines or knob configurations are not comparable, so a
//! mismatch skips the gate (exit 0, with a message) instead of failing it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use identxx_bench::report::{parse_json, BenchRow, Value};

const USAGE: &str = "usage: cargo run -p xtask -- lint\n       \
                     cargo run -p xtask -- e11-gate <baseline.json> <current.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some("e11-gate") => match (args.get(1), args.get(2)) {
            (Some(baseline), Some(current)) => e11_gate(Path::new(baseline), Path::new(current)),
            _ => {
                eprintln!("e11-gate needs two paths\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!("unknown task `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut violations = Vec::new();

    let tokio_src = root.join("vendor/tokio/src");
    for file in rust_files(&tokio_src) {
        check_safety_comments(&file, &mut violations);
    }
    check_deny_attribute(&tokio_src.join("lib.rs"), &mut violations);

    let mut async_roots: Vec<PathBuf> = vec![root.join("src"), tokio_src];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let src = entry.path().join("src");
            if src.is_dir() {
                async_roots.push(src);
            }
        }
    }
    let mut files_scanned = 0usize;
    for dir in async_roots {
        for file in rust_files(&dir) {
            files_scanned += 1;
            check_blocking_in_async(&file, &mut violations);
        }
    }

    if violations.is_empty() {
        println!("xtask lint: ok ({files_scanned} files scanned for blocking calls)");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// e11-gate: p99 latency-regression gate over BENCH_E11.json
// ---------------------------------------------------------------------------

/// Maximum tolerated p99 growth: a current cell must stay within this factor
/// of the committed baseline cell, or the gate fails.
const E11_P99_MAX_RATIO: f64 = 2.0;

/// What comparing a baseline report against a current one concluded.
enum GateOutcome {
    /// The two environment rows differ: the numbers came from different
    /// machine/knob configurations and are not comparable. The gate passes
    /// vacuously (with a message) rather than failing on apples-to-oranges.
    Skipped(String),
    /// Cells were compared; `regressions` holds one line per cell whose p99
    /// grew beyond [`E11_P99_MAX_RATIO`].
    Compared {
        report: Vec<String>,
        regressions: Vec<String>,
    },
}

/// `cargo run -p xtask -- e11-gate <baseline.json> <current.json>`: fails
/// (exit 1) when any matching E11 cell's `latency_p99_us` regressed beyond
/// [`E11_P99_MAX_RATIO`]; exits 0 when every cell is within bounds or the
/// environment rows do not match; exits 2 on unreadable/invalid input.
fn e11_gate(baseline_path: &Path, current_path: &Path) -> ExitCode {
    let read = |path: &Path| -> Result<Vec<BenchRow>, String> {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("{}: {err}", path.display()))?;
        parse_json(&text).map_err(|err| format!("{}: {err}", path.display()))
    };
    let pair = read(baseline_path).and_then(|baseline| Ok((baseline, read(current_path)?)));
    let (baseline, current) = match pair {
        Ok(pair) => pair,
        Err(err) => {
            eprintln!("e11-gate: {err}");
            return ExitCode::from(2);
        }
    };
    match e11_gate_outcome(&baseline, &current) {
        Err(err) => {
            eprintln!("e11-gate: {err}");
            ExitCode::from(2)
        }
        Ok(GateOutcome::Skipped(reason)) => {
            println!("e11-gate: skipped: {reason}");
            ExitCode::SUCCESS
        }
        Ok(GateOutcome::Compared {
            report,
            regressions,
        }) => {
            for line in &report {
                println!("e11-gate: {line}");
            }
            if regressions.is_empty() {
                println!("e11-gate: ok (every cell within {E11_P99_MAX_RATIO}x of baseline p99)");
                ExitCode::SUCCESS
            } else {
                for regression in &regressions {
                    eprintln!("e11-gate: REGRESSION: {regression}");
                }
                ExitCode::FAILURE
            }
        }
    }
}

fn environment_of(rows: &[BenchRow]) -> Option<&BenchRow> {
    rows.iter()
        .find(|r| matches!(r.get("row"), Some(Value::Str(s)) if s == "environment"))
}

/// The identity of one E11 cell: every configuration field that must agree
/// before two p99 numbers are the same experiment.
fn cell_key(row: &BenchRow) -> String {
    [
        "experiment",
        "churn",
        "daemons",
        "shards",
        "offered_rate_per_sec",
        "duration_s",
    ]
    .iter()
    .map(|key| match row.get(key) {
        Some(Value::Str(s)) => format!("{key}={s}"),
        Some(Value::Num(n)) => format!("{key}={n}"),
        None => format!("{key}=?"),
    })
    .collect::<Vec<_>>()
    .join(" ")
}

fn p99_of(row: &BenchRow) -> Option<f64> {
    match row.get("latency_p99_us") {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

fn e11_gate_outcome(baseline: &[BenchRow], current: &[BenchRow]) -> Result<GateOutcome, String> {
    let env_baseline =
        environment_of(baseline).ok_or_else(|| "baseline has no environment row".to_string())?;
    let env_current =
        environment_of(current).ok_or_else(|| "current run has no environment row".to_string())?;
    if env_baseline != env_current {
        return Ok(GateOutcome::Skipped(format!(
            "environment rows differ (baseline {env_baseline:?} vs current {env_current:?}); \
             latency numbers from different environments are not comparable"
        )));
    }
    let mut report = Vec::new();
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for base_row in baseline {
        let Some(base_p99) = p99_of(base_row) else {
            continue;
        };
        let key = cell_key(base_row);
        let matching = current
            .iter()
            .find(|row| p99_of(row).is_some() && cell_key(row) == key);
        let Some(current_row) = matching else {
            report.push(format!("{key}: no matching cell in current run; skipped"));
            continue;
        };
        let current_p99 = p99_of(current_row).expect("matching cell has p99");
        compared += 1;
        let ratio = if base_p99 > 0.0 {
            current_p99 / base_p99
        } else {
            f64::INFINITY
        };
        report.push(format!(
            "{key}: p99 {base_p99:.0}us -> {current_p99:.0}us ({ratio:.2}x)"
        ));
        if current_p99 > base_p99 * E11_P99_MAX_RATIO {
            regressions.push(format!(
                "{key}: p99 {base_p99:.0}us -> {current_p99:.0}us exceeds the \
                 {E11_P99_MAX_RATIO}x budget"
            ));
        }
    }
    if compared == 0 {
        return Err(
            "no comparable cells: baseline and current share no cell key with a p99".to_string(),
        );
    }
    Ok(GateOutcome::Compared {
        report,
        regressions,
    })
}

/// Walk up from the executable's cwd to the directory holding the workspace
/// `Cargo.toml` (cargo runs xtask from the workspace root, but be tolerant).
fn repo_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            panic!("workspace root not found above cwd");
        }
    }
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Strips line comments, string/char literal *contents*, and lifetimes from
/// one source line so that brace counting and token matching see only code.
/// Raw strings and block comments are not used in this workspace's sources;
/// the scanner treats `"` inside them like any string delimiter, which is
/// conservative (it can only hide tokens, never invent them — and braces in
/// format strings are the actual hazard this guards against).
fn sanitize(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'"' => {
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            out.push('"');
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'\'' => {
                // Char literal ('x', '\n', '\u{..}') vs lifetime ('a).
                let rest = &bytes[i + 1..];
                let close = if rest.first() == Some(&b'\\') {
                    rest.iter().skip(1).position(|&b| b == b'\'').map(|p| p + 1)
                } else if rest.len() >= 2 && rest[1] == b'\'' {
                    Some(1)
                } else {
                    None
                };
                match close {
                    Some(offset) => i += offset + 2, // skip the whole literal
                    None => i += 1,                  // lifetime: drop the quote
                }
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    out
}

/// True if `line` contains `word` as a standalone token (not part of a
/// longer identifier such as `unsafe_op_in_unsafe_fn`).
fn has_token(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].chars().next();
        let boundary = |c: Option<char>| !c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary(before) && boundary(after) {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// How many raw lines above an `unsafe` token a `// SAFETY:` comment still
/// covers it (the comment may span several lines between them).
const SAFETY_WINDOW: usize = 6;

fn check_safety_comments(path: &Path, violations: &mut Vec<String>) {
    match std::fs::read_to_string(path) {
        Ok(text) => scan_safety_comments(&path.display().to_string(), &text, violations),
        Err(_) => violations.push(format!("{}: unreadable", path.display())),
    }
}

/// The SAFETY-comment lint over one file's source `text`; violations are
/// reported as `label:line`.
fn scan_safety_comments(label: &str, text: &str, violations: &mut Vec<String>) {
    let raw: Vec<&str> = text.lines().collect();
    for (idx, line) in raw.iter().enumerate() {
        if !has_token(&sanitize(line), "unsafe") {
            continue;
        }
        let window_start = idx.saturating_sub(SAFETY_WINDOW);
        let covered = raw[window_start..=idx]
            .iter()
            .any(|l| l.to_ascii_lowercase().contains("safety:"));
        if !covered {
            violations.push(format!(
                "{}:{}: `unsafe` without a `// SAFETY:` comment within {} lines above",
                label,
                idx + 1,
                SAFETY_WINDOW
            ));
        }
    }
}

fn check_deny_attribute(lib_rs: &Path, violations: &mut Vec<String>) {
    match std::fs::read_to_string(lib_rs) {
        Ok(text) if text.contains("#![deny(unsafe_op_in_unsafe_fn)]") => {}
        Ok(_) => violations.push(format!(
            "{}: missing `#![deny(unsafe_op_in_unsafe_fn)]`",
            lib_rs.display()
        )),
        Err(_) => violations.push(format!("{}: unreadable", lib_rs.display())),
    }
}

const BLOCKING_PATTERNS: &[&str] = &[
    "thread::sleep",
    "std::net::TcpStream::connect",
    "std::net::TcpListener::bind",
];

const ALLOW_MARKER: &str = "xtask:allow-blocking";

/// The allow marker may sit on the flagged line or in a comment up to this
/// many lines above it.
const ALLOW_WINDOW: usize = 3;

fn check_blocking_in_async(path: &Path, violations: &mut Vec<String>) {
    if let Ok(text) = std::fs::read_to_string(path) {
        scan_blocking_in_async(&path.display().to_string(), &text, violations);
    }
}

/// The blocking-in-async lint over one file's source `text`; violations are
/// reported as `label:line`.
fn scan_blocking_in_async(label: &str, text: &str, violations: &mut Vec<String>) {
    let mut depth = 0usize;
    // Brace depths at which async bodies opened; non-empty = inside async.
    let mut async_stack: Vec<usize> = Vec::new();
    let mut pending_async = false;
    // Depth of a `#[cfg(test)] mod … { … }` body being skipped, if any.
    let mut test_mod_depth: Option<usize> = None;
    let mut pending_cfg_test = false;

    let raw_lines: Vec<&str> = text.lines().collect();
    for (idx, raw) in raw_lines.iter().copied().enumerate() {
        let line = sanitize(raw);
        if raw.trim_start().starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
        }
        let starts_test_mod = pending_cfg_test && has_token(&line, "mod");
        if has_token(&line, "async") {
            pending_async = true;
        }

        let allowed = raw_lines[idx.saturating_sub(ALLOW_WINDOW)..=idx]
            .iter()
            .any(|l| l.contains(ALLOW_MARKER));
        if !async_stack.is_empty()
            && test_mod_depth.is_none()
            && !allowed
            && BLOCKING_PATTERNS.iter().any(|p| line.contains(p))
        {
            violations.push(format!(
                "{}:{}: blocking call in async code (escape with `// {}` if deliberate): {}",
                label,
                idx + 1,
                ALLOW_MARKER,
                raw.trim()
            ));
        }

        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if starts_test_mod && test_mod_depth.is_none() {
                        test_mod_depth = Some(depth);
                        pending_cfg_test = false;
                    }
                    if pending_async {
                        async_stack.push(depth);
                        pending_async = false;
                    }
                }
                '}' => {
                    if async_stack.last() == Some(&depth) {
                        async_stack.pop();
                    }
                    if test_mod_depth == Some(depth) {
                        test_mod_depth = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                // A statement terminator before any `{` means the `async`
                // token did not open a body here (e.g. a use or a string).
                ';' if pending_async => pending_async = false,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e11_env() -> BenchRow {
        BenchRow::new()
            .with("row", "environment")
            .with("available_cores", 1usize)
    }

    fn e11_cell(churn: &str, p99: f64) -> BenchRow {
        BenchRow::new()
            .with("experiment", "e11")
            .with("churn", churn)
            .with("daemons", 1024usize)
            .with("shards", 4usize)
            .with("offered_rate_per_sec", 1000usize)
            .with("duration_s", 4usize)
            .with("latency_p99_us", p99)
    }

    #[test]
    fn e11_gate_passes_within_budget_and_fails_beyond_it() {
        let baseline = vec![e11_cell("off", 2000.0), e11_cell("on", 2400.0), e11_env()];

        let ok = vec![e11_cell("off", 3900.0), e11_cell("on", 2000.0), e11_env()];
        match e11_gate_outcome(&baseline, &ok).unwrap() {
            GateOutcome::Compared { regressions, .. } => assert!(regressions.is_empty()),
            GateOutcome::Skipped(reason) => panic!("unexpected skip: {reason}"),
        }

        let slow = vec![e11_cell("off", 4100.0), e11_cell("on", 2000.0), e11_env()];
        match e11_gate_outcome(&baseline, &slow).unwrap() {
            GateOutcome::Compared { regressions, .. } => {
                assert_eq!(regressions.len(), 1, "{regressions:?}");
                assert!(regressions[0].contains("churn=off"), "{regressions:?}");
            }
            GateOutcome::Skipped(reason) => panic!("unexpected skip: {reason}"),
        }
    }

    #[test]
    fn e11_gate_skips_on_environment_mismatch() {
        let baseline = vec![e11_cell("off", 2000.0), e11_env()];
        let other_env = BenchRow::new()
            .with("row", "environment")
            .with("available_cores", 8usize);
        let current = vec![e11_cell("off", 9000.0), other_env];
        assert!(matches!(
            e11_gate_outcome(&baseline, &current).unwrap(),
            GateOutcome::Skipped(_)
        ));
    }

    #[test]
    fn e11_gate_reports_missing_cells_without_failing() {
        let baseline = vec![e11_cell("off", 2000.0), e11_cell("on", 2400.0), e11_env()];
        // The churn=on cell vanished (different sweep shape): reported, not
        // a regression — but at least one cell must still compare.
        let current = vec![e11_cell("off", 2100.0), e11_env()];
        match e11_gate_outcome(&baseline, &current).unwrap() {
            GateOutcome::Compared {
                report,
                regressions,
            } => {
                assert!(regressions.is_empty());
                assert!(
                    report.iter().any(|l| l.contains("no matching cell")),
                    "{report:?}"
                );
            }
            GateOutcome::Skipped(reason) => panic!("unexpected skip: {reason}"),
        }

        let disjoint = vec![e11_cell("elsewhere", 2100.0), e11_env()];
        assert!(e11_gate_outcome(&baseline, &disjoint).is_err());
    }

    #[test]
    fn sanitize_strips_strings_comments_and_lifetimes() {
        assert_eq!(sanitize("let x = 1; // comment { } unsafe"), "let x = 1; ");
        assert_eq!(sanitize(r#"format!("{e:?}")"#), r#"format!("")"#);
        assert_eq!(sanitize("fn f<'a>(x: &'a str)"), "fn f<a>(x: &a str)");
        assert_eq!(sanitize("let c = '{';"), "let c = ;");
        assert_eq!(sanitize(r"let c = '\n';"), "let c = ;");
    }

    #[test]
    fn token_matching_respects_identifier_boundaries() {
        assert!(has_token("unsafe {", "unsafe"));
        assert!(!has_token("#![deny(unsafe_op_in_unsafe_fn)]", "unsafe"));
        assert!(has_token("x unsafe_y unsafe", "unsafe"));
    }

    fn blocking(source: &str) -> Vec<String> {
        let mut v = Vec::new();
        scan_blocking_in_async("probe.rs", source, &mut v);
        v
    }

    #[test]
    fn blocking_call_in_async_fn_is_flagged() {
        let v = blocking("async fn f() {\n    std::thread::sleep(d);\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("probe.rs:2"), "{v:?}");
    }

    #[test]
    fn blocking_call_in_sync_fn_is_not_flagged() {
        let v = blocking("fn f() {\n    std::thread::sleep(d);\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn async_block_inside_sync_fn_is_scanned() {
        let v = blocking("fn f() {\n    block_on(async {\n        thread::sleep(d);\n    });\n    thread::sleep(d);\n}\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("probe.rs:3"), "{v:?}");
    }

    #[test]
    fn test_modules_and_allow_marker_are_exempt() {
        let flagged = blocking(
            "#[cfg(test)]\nmod tests {\n    async fn f() {\n        thread::sleep(d);\n    }\n}\n",
        );
        assert!(flagged.is_empty(), "{flagged:?}");
        let escaped =
            blocking("async fn f() {\n    thread::sleep(d); // xtask:allow-blocking why\n}\n");
        assert!(escaped.is_empty(), "{escaped:?}");
    }

    #[test]
    fn safety_window_accepts_comment_and_rejects_bare_unsafe() {
        let padding = "\n".repeat(SAFETY_WINDOW + 1);
        let source = format!(
            "// SAFETY: fine\nlet x = unsafe {{ f() }};{padding}let y = unsafe {{ g() }};\n"
        );
        let mut v = Vec::new();
        scan_safety_comments("probe.rs", &source, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains(&format!("probe.rs:{}", SAFETY_WINDOW + 3)),
            "{v:?}"
        );
    }
}
