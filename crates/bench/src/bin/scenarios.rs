//! Prints the experiment scenario tables (E1, E6, E7, E8a, E8b, E9, E10,
//! E11, E12, E13) that used to be side effects of `cargo bench`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p identxx-bench --bin scenarios             # all tables
//! cargo run --release -p identxx-bench --bin scenarios e6 e8a     # a subset
//! cargo run --release -p identxx-bench --bin scenarios --json e9  # + BENCH_E9.json
//! IDENTXX_SHARDS=4 cargo run --release -p identxx-bench --bin scenarios e8b e9
//! IDENTXX_E10_SMOKE=1 cargo run --release -p identxx-bench --bin scenarios e10
//! IDENTXX_E11_SMOKE=1 cargo run --release -p identxx-bench --bin scenarios e11
//! IDENTXX_E12_SMOKE=1 cargo run --release -p identxx-bench --bin scenarios e12
//! IDENTXX_E13_SMOKE=1 cargo run --release -p identxx-bench --bin scenarios e13
//! ```
//!
//! `IDENTXX_SHARDS=N` focuses the E9 sharding sweep on shard counts {1, N}
//! and runs the E8b table over an N-shard tier sharing one daemon directory
//! (CI's second smoke configuration); without it E9 sweeps 1/2/4/8 and E8b
//! runs unsharded. Every E9 cell (and the sharded E8b run) asserts it is
//! decision-identical to the single-controller path, so the smoke run fails
//! if sharding ever changes a decision. E10 sweeps the reactor runtime over
//! daemon count × lanes and asserts its thread bound in every cell;
//! `IDENTXX_E10_SMOKE=1` shrinks its sweep to CI size. E12 is the failure-drill matrix (partition,
//! brownout, shard loss, reshard-under-load — DESIGN.md §9): every cell
//! asserts bounded round latency, fail-closed denies for unobtainable
//! answers, and post-recovery decision identity; `IDENTXX_E12_SMOKE=1`
//! shrinks it for CI. E13 sweeps the amortized `verify()` plane — bundle
//! locality × bundle lifetime × batch size against an unsigned-rule
//! baseline — asserting forged bundles never pass, expired bundles stop
//! passing, and the headline amortization claim; `IDENTXX_E13_SMOKE=1`
//! shrinks it for CI. E11 is the open-loop sustained-load harness (a
//! configured arrival rate over thousands of daemons with population
//! churn, p50/p99/p999 decision latency — DESIGN.md §10);
//! `IDENTXX_E11_SMOKE=1` shrinks its minutes-long cells to seconds.
//!
//! `--json` additionally writes each quantitative experiment's cells to
//! `BENCH_<EXP>.json` in the working directory (E8a, E8b, E9, E10, E11,
//! E12, E13) — each with a trailing environment row recording cores and the
//! `IDENTXX_*` knobs — so CI can upload them as artifacts and track the
//! perf trajectory across PRs.

use identxx_bench::report::{write_bench_json, BenchRow};
use identxx_bench::{e11, scenarios};

/// Flows per E9 sweep cell. Modest on purpose: the slowest cell decides one
/// flow per ~3 ms daemon round trip (≈ 2.3 s for the batch-1 single-shard
/// cell), and the table has up to 12 cells.
const E9_SMOKE_FLOWS: usize = 768;

fn e9_shard_counts() -> Vec<usize> {
    match scenarios::env_shards() {
        Some(1) => vec![1],
        Some(shards) => vec![1, shards],
        None => vec![1, 2, 4, 8],
    }
}

fn main() {
    let mut json = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|arg| {
            if arg == "--json" {
                json = true;
                false
            } else {
                true
            }
        })
        .collect();
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "e1", "e6", "e7", "e8a", "e8b", "e9", "e10", "e11", "e12", "e13",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let e10_smoke = std::env::var_os("IDENTXX_E10_SMOKE").is_some();
    let e11_smoke = std::env::var_os("IDENTXX_E11_SMOKE").is_some();
    let e12_smoke = std::env::var_os("IDENTXX_E12_SMOKE").is_some();
    let e13_smoke = std::env::var_os("IDENTXX_E13_SMOKE").is_some();
    for experiment in selected {
        let rows: Vec<BenchRow> = match experiment {
            "e1" => {
                scenarios::print_e1();
                Vec::new()
            }
            "e6" => {
                scenarios::print_e6();
                Vec::new()
            }
            "e7" => {
                scenarios::print_e7();
                Vec::new()
            }
            "e8a" => scenarios::print_e8a(),
            "e8b" => scenarios::print_e8b(),
            "e9" => scenarios::print_e9(&e9_shard_counts(), E9_SMOKE_FLOWS),
            "e10" => scenarios::print_e10(e10_smoke),
            "e11" => e11::print_e11(e11_smoke),
            "e12" => scenarios::print_e12(e12_smoke),
            "e13" => scenarios::print_e13(e13_smoke),
            other => {
                eprintln!(
                    "unknown experiment {other:?}; expected e1, e6, e7, e8a, e8b, e9, e10, e11, e12, e13, or all"
                );
                std::process::exit(2);
            }
        };
        if json && !rows.is_empty() {
            match write_bench_json(experiment, &rows) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(err) => {
                    eprintln!("failed to write BENCH json for {experiment}: {err}");
                    std::process::exit(1);
                }
            }
        }
    }
}
