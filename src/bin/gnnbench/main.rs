//! `gnnbench` — the benchmark every later performance or simplicity
//! change is judged by: step time, memory and set-up on four workloads,
//! per-layer metrics timed from outside the library, and a traced run.
//! It claims no gain; it only measures. `README.md` beside this file
//! holds the metric glossary, the workload table and how to read the
//! trace.
//!
//! ```text
//! gnnbench run   [--seed N] [--quick]   every end-to-end metric, 3 rounds x 4 workloads
//! gnnbench trace [--seed N] [--quick]   every per-layer metric, writes target/gnnbench/trace.json
//! gnnbench check [--seed N] [--quick]   `run` twice in child processes, compared against the bounds
//! gnnbench --workload W --seed N --seconds S --trace 0|1
//!                                       one workload; the last line of stdout is the JSON
//!                                       result `BENCHMARK.json` describes. `--trace 0`
//!                                       measures blocks for S seconds, `--trace 1` is that
//!                                       workload's traced run (fixed step counts)
//! ```
//!
//! # The library surface the benchmark calls
//!
//! Only what a user of the system calls, so that the frozen benchmark is
//! never what keeps a deprecated path alive:
//!
//! * graph: `generators::rmat`, `datasets::cora().build_graph`,
//!   `EdgeList::from_pairs` (to hand Cora over as an edge list),
//!   `Graph::{from_edge_list, validate, stats}` and its plain accessors,
//!   `Partition::{edge_cut_bfs, cut_edges}`;
//! * reorder: `strategies::rcm`, `Permutation::apply_to_edges`,
//!   `locality::report`;
//! * models: `gat`, `gcn`, `ModelSpec::{init_values, output_dim}`;
//! * core: `compile`, `CompileOptions::{ours, dgl}` with an explicit
//!   `ExecPolicy::threads` (1 where a bound applies, `min(nproc, 4)` in
//!   the parallel probe; `host.rs` says why); the passes `reorganize`, `append_backward`,
//!   `fusion::{duplicate_copy_scatters, partition}`,
//!   `plan_training_memory`, `lower_plan`, `plan_memory`;
//!   `ExecutionPlan::{profiles, exec_stats}`,
//!   `MemoryPlan::peak_live_bytes`;
//! * sim: `Device::rtx3090`;
//! * tensor: `Tensor` constructors and accessors,
//!   `Tensor::matmul_with_threads` with `GemmKernel::default()`,
//!   `rowops::axpy`;
//! * exec: `Session::builder(..).build()` with
//!   `forward`/`backward`/`step`/`stats` and the borrowing accessors
//!   `output_ref`/`grad_ref` that `step` is documented to pair with;
//!   `ShardedSession::builder(..).shards(2).build()` with
//!   `forward`/`backward`/`stats`/`exchanges`/`shard_summaries`;
//!   `kernels::{gather, scatter}`;
//! * train: `Trainer::{new, with_clip_norm, step}`, `Adam`,
//!   `softmax_cross_entropy_masked`.
//!
//! Not called: the `#[deprecated]` session constructors, `.fused(..)`,
//! `.arena(..)`, `.env(..)`, `GemmKernel::Naive`, anything in
//! `gnnopt::bench`, or any `GNNOPT_*` variable — every one of those is
//! removed from the environment before the first session is built.

mod host;
mod inputs;
mod json;
mod layers;
mod measure;
mod metrics;
mod oracle;
mod stats;
mod trace;
mod workloads;

use host::Host;
use json::Json;
use measure::WorkloadRun;
use metrics::{complete_per_layer, Metric, END_TO_END, FAILED_STEPS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use trace::Tracer;
use workloads::{BlockPlan, Kind, Size, Workload, WARMUP_STEPS};

const DEFAULT_SEED: u64 = 7;
/// Rounds of `run`: each workload's blocks are spread over the whole
/// run, so a noisy minute hits all four alike.
const ROUNDS: usize = 3;
/// Blocks a `--seconds` run makes at least, so that `setup_s` is a
/// median of several set-ups.
const MIN_BLOCKS: usize = 3;

/// Pass-through allocator that counts what the process allocates, for
/// `exec.allocs_per_step`. Statistics only: `Relaxed` publishes nothing.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: as above; `p` came from `System` through this shim.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        count(n);
        // SAFETY: as above.
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count(l.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// `(allocations, bytes requested)` since the process started.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Ambient overrides must not leak into a measurement.
fn scrub_env() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GNNOPT_") {
            std::env::remove_var(key);
        }
    }
}

/// `run`: three rounds, round-robin over the four workloads, one
/// process.
fn run_all(seed: u64, size: Size, host: &Host) -> Vec<WorkloadRun> {
    let mut tr = Tracer::new(false);
    let mut runs: Vec<WorkloadRun> = Workload::ALL
        .into_iter()
        .map(|w| {
            let mut run = WorkloadRun::new(w, size, seed);
            run.full_baseline = true;
            run
        })
        .collect();
    let rounds = if size == Size::Quick { 1 } else { ROUNDS };
    for round in 1..=rounds {
        for run in &mut runs {
            let plan = BlockPlan {
                warmup: WARMUP_STEPS,
                timed: run.w.steps(size).run,
                ..BlockPlan::default()
            };
            let wall = run.block(plan, &mut tr);
            eprintln!(
                "round {round}/{rounds}: {} block took {wall:.1} s",
                run.w.name()
            );
        }
    }
    for run in &mut runs {
        run.finish(host.parallel_threads);
    }
    runs
}

/// The traced run of one workload: one block whose steps are recorded
/// span by span, then the layer probes. Returns the run and every
/// per-layer metric it produced (not yet padded with zeros).
fn trace_workload(
    w: Workload,
    seed: u64,
    size: Size,
    host: &Host,
    tr: &mut Tracer,
) -> (WorkloadRun, Vec<Metric>) {
    let mut run = WorkloadRun::new(w, size, seed);
    let steps = w.steps(size).trace;
    let plan = BlockPlan {
        warmup: WARMUP_STEPS,
        timed: steps,
        traced: steps,
        ..BlockPlan::default()
    };
    run.block(plan, tr);
    run.finish(host.parallel_threads);
    let probe_steps = match (size, w.kind()) {
        (Size::Quick, _) => 1,
        (Size::Full, Kind::Trainer) => 200,
        (Size::Full, _) => 4,
    };
    let mut layer = layers::probe(&run, probe_steps, size, host, tr);
    for m in run.free_layer_metrics(host) {
        if !layer.iter().any(|have| have.name == m.name) {
            layer.push(m);
        }
    }
    (run, layer)
}

fn failed_metric(run: &WorkloadRun) -> Metric {
    Metric {
        name: FAILED_STEPS,
        value: run.failed() as f64,
        unit: "steps",
        samples: Some(run.attempted),
    }
}

fn print_checks(run: &WorkloadRun) {
    let passed = run.checks.iter().filter(|c| c.ok).count();
    println!(
        "{}: {passed} of {} oracle checks passed",
        run.w.name(),
        run.checks.len()
    );
    for c in run.checks.iter().filter(|c| !c.ok) {
        println!("{}: FAILED {}: {}", run.w.name(), c.name, c.detail);
    }
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{}", metrics::line(workload, m));
    }
}

fn cmd_run(seed: u64, size: Size) -> ExitCode {
    let host = Host::detect();
    println!("gnnbench run --seed {seed}{}", quick_flag(size));
    println!("{}", host.describe());
    let runs = run_all(seed, size, &host);
    let mut failed = 0;
    for run in &runs {
        println!();
        print_checks(run);
        print_metrics(run.w.name(), &run.end_to_end());
        print_metrics(run.w.name(), &[failed_metric(run)]);
        print_metrics(run.w.name(), &run.free_layer_metrics(&host));
        failed += run.failed();
    }
    exit_code(failed == 0)
}

/// Where the trace goes: under cargo's target directory, which is
/// inside the checkout and ignored by git.
fn trace_path() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target)
        .join("gnnbench")
        .join("trace.json")
}

fn write_trace(tr: &Tracer) {
    let path = trace_path();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tr.to_json()));
    match written {
        Ok(()) => println!("wrote {} spans to {}", tr.spans.len(), path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

fn cmd_trace(seed: u64, size: Size) -> ExitCode {
    let host = Host::detect();
    println!("gnnbench trace --seed {seed}{}", quick_flag(size));
    println!("{}", host.describe());
    let mut tr = Tracer::new(true);
    let mut failed = 0;
    for w in Workload::ALL {
        let (run, layer) = trace_workload(w, seed, size, &host, &mut tr);
        println!();
        print_checks(&run);
        print_metrics(w.name(), &[failed_metric(&run)]);
        print_metrics(w.name(), &complete_per_layer(&layer));
        failed += run.failed();
    }
    write_trace(&tr);
    exit_code(failed == 0)
}

/// The `--workload` form: one workload, blocks until `seconds` of them
/// have been measured, the result as one JSON line at the end.
fn cmd_bench(w: Workload, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let host = Host::detect();
    println!("{}", host.describe());
    let (run, metrics) = if traced {
        let mut tr = Tracer::new(true);
        let (run, layer) = trace_workload(w, seed, Size::Full, &host, &mut tr);
        write_trace(&tr);
        (run, complete_per_layer(&layer))
    } else {
        let mut tr = Tracer::new(false);
        let mut run = WorkloadRun::new(w, Size::Full, seed);
        let plan = BlockPlan {
            warmup: WARMUP_STEPS,
            timed: w.steps(Size::Full).bench,
            ..BlockPlan::default()
        };
        let mut measured = 0.0;
        loop {
            let wall = run.block(plan, &mut tr);
            measured += wall;
            // Stop at the block boundary nearest to `seconds`.
            let enough = run.blocks.len() >= MIN_BLOCKS && measured + wall / 2.0 > seconds;
            // A block that cannot even set up will not do better next time.
            if enough || run.blocks.is_empty() {
                break;
            }
        }
        run.finish(host.parallel_threads);
        print_metrics(w.name(), &run.free_layer_metrics(&host));
        let metrics = run.end_to_end();
        (run, metrics)
    };
    print_checks(&run);
    print_metrics(w.name(), &metrics);
    print_metrics(w.name(), &[failed_metric(&run)]);
    let failed = run.failed();
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let fields = metrics
        .iter()
        .map(|m| {
            let value = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
            (m.name.to_owned(), value)
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(run.attempted.max(1) as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", Json::Obj(fields)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}

/// `check`: `run` twice, one child process after the other, and every
/// workload x end-to-end metric compared against its bound.
fn cmd_check(seed: u64, size: Size) -> ExitCode {
    let child = || -> Result<Vec<(String, String, f64)>, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["run", "--seed", &seed.to_string()]);
        if size == Size::Quick {
            cmd.arg("--quick");
        }
        // The child's progress lines pass through; `output` waits for it,
        // so the two runs never overlap.
        cmd.stderr(Stdio::inherit());
        let out = cmd.output().map_err(|e| e.to_string())?;
        let text = String::from_utf8_lossy(&out.stdout);
        Ok(text
            .lines()
            .filter_map(metrics::parse_line)
            .map(|(w, n, v)| (w.to_owned(), n.to_owned(), v))
            .collect())
    };
    let (first, second) = match (child(), child()) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("check: could not run the benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let find = |rows: &[(String, String, f64)], w: &str, n: &str| {
        rows.iter()
            .find(|(rw, rn, _)| rw == w && rn == n)
            .map(|r| r.2)
    };
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "run 1", "run 2", "rel diff", "bound"
    );
    let mut ok = true;
    for w in Workload::ALL {
        let bounds = END_TO_END.iter().map(|&(n, .., bound)| (n, bound));
        for (name, bound) in bounds.chain([(FAILED_STEPS, 0.0)]) {
            let (Some(a), Some(b)) = (find(&first, w.name(), name), find(&second, w.name(), name))
            else {
                println!("{:<18} {name:<16} missing from a run", w.name());
                ok = false;
                continue;
            };
            let diff = if a == b { 0.0 } else { (b - a).abs() / a.abs() };
            let pass = if name == FAILED_STEPS {
                a == 0.0 && b == 0.0
            } else {
                diff <= bound
            };
            ok &= pass;
            println!(
                "{:<18} {name:<16} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{}",
                w.name(),
                diff * 100.0,
                bound * 100.0,
                if pass { "" } else { "  <-- outside the bound" }
            );
        }
    }
    exit_code(ok)
}

fn quick_flag(size: Size) -> &'static str {
    if size == Size::Quick {
        " --quick (sizes shrunk: not a measurement)"
    } else {
        ""
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: gnnbench run|trace|check [--seed N] [--quick]
       gnnbench --workload <gat_train|gcn_wide_train|gcn_shard2_train|cora_trainer> \
--seed N --seconds S --trace 0|1";

enum Cli {
    Run(u64, Size),
    Trace(u64, Size),
    Check(u64, Size),
    Bench {
        workload: Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let (command, flags) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "check")) => (Some(c), &args[1..]),
        _ => (None, args),
    };
    let mut seed = DEFAULT_SEED;
    let mut size = Size::Full;
    let (mut workload, mut seconds, mut traced) = (None, None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--quick" => size = Size::Quick,
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload '{name}'"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be within (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match (command, workload) {
        (Some("run"), None) => Ok(Cli::Run(seed, size)),
        (Some("trace"), None) => Ok(Cli::Trace(seed, size)),
        (Some("check"), None) => Ok(Cli::Check(seed, size)),
        (None, Some(workload)) if size == Size::Full => Ok(Cli::Bench {
            workload,
            seed,
            seconds: seconds.ok_or("--workload needs --seconds")?,
            traced: traced.ok_or("--workload needs --trace")?,
        }),
        _ => Err("give one of run, trace, check, or --workload".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("gnnbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    scrub_env();
    match cli {
        Cli::Run(seed, size) => cmd_run(seed, size),
        Cli::Trace(seed, size) => cmd_trace(seed, size),
        Cli::Check(seed, size) => cmd_check(seed, size),
        Cli::Bench {
            workload,
            seed,
            seconds,
            traced,
        } => cmd_bench(workload, seed, seconds, traced),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;
    use std::collections::HashSet;
    use workloads::QUICK_STEPS;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn command_lines_parse() {
        assert!(matches!(
            parse_cli(&args("run")),
            Ok(Cli::Run(7, Size::Full))
        ));
        assert!(matches!(
            parse_cli(&args("trace --quick --seed 8")),
            Ok(Cli::Trace(8, Size::Quick))
        ));
        assert!(matches!(
            parse_cli(&args(
                "--workload cora_trainer --seed 3 --seconds 20 --trace 1"
            )),
            Ok(Cli::Bench {
                workload: Workload::CoraTrainer,
                seed: 3,
                traced: true,
                ..
            })
        ));
        for bad in [
            "",
            "run --workload gat_train",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload gat_train --seed 1 --seconds 1",
            "--workload gat_train --seed 1 --seconds 0 --trace 0",
            "--workload gat_train --seed 1 --seconds 1 --trace 2",
            "--workload gat_train --seed 1 --seconds 1 --trace 0 --quick",
            "run --seed",
            "run --frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "accepted: '{bad}'");
        }
    }

    /// All four workloads end to end at `--quick` size, through the
    /// traced run (whose block also holds untraced steps): every step
    /// passes every oracle and every catalogued metric is produced, once.
    #[test]
    fn quick_runs_cover_every_metric() {
        scrub_env();
        let host = Host::detect();
        let mut tr = Tracer::new(true);
        let mut produced = HashSet::new();
        for w in Workload::ALL {
            let (run, layer) = trace_workload(w, DEFAULT_SEED, Size::Quick, &host, &mut tr);
            assert_eq!(run.failed(), 0, "{}", w.name());
            assert_eq!(run.attempted, 2 * QUICK_STEPS);
            assert!(run.checks.len() >= 3, "{}: the oracles ran", w.name());
            let e2e = run.end_to_end();
            let e2e_names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|&(n, ..)| n).collect();
            assert_eq!(e2e_names, want, "{}", w.name());
            for m in &e2e {
                assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
            }
            let names: HashSet<&str> = layer.iter().map(|m| m.name).collect();
            assert_eq!(names.len(), layer.len(), "{}: a metric twice", w.name());
            for m in &layer {
                assert!(m.value.is_finite(), "{}: {m:?}", w.name());
            }
            assert_eq!(complete_per_layer(&layer).len(), PER_LAYER.len());
            produced.extend(names);
        }
        for &(name, ..) in PER_LAYER {
            // The one metric that needs a thousand samples.
            if name != "exec.step_ms_p99" {
                assert!(produced.contains(name), "{name} was never produced");
            }
        }
        for name in [
            "graph.csr_build",
            "core.compile",
            "exec.forward",
            "train.step",
        ] {
            assert!(tr.spans.iter().any(|s| s.name == name), "no {name} span");
        }
        assert!(tr.to_json().starts_with("{\"spans\":["));
    }
}
