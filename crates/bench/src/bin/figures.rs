//! `figures <name>|all`: prints one figure of the paper's evaluation, or
//! all of them, at paper scale on the analytical GPU model. An unknown
//! name prints the list and exits non-zero.
//!
//! Run with `cargo run --release -p gnnopt-bench --bin figures -- all`.

use gnnopt_bench::figures::{select, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(figures) = (match args.as_slice() {
        [name] => select(name),
        _ => None,
    }) else {
        eprintln!("usage: figures <name>|all");
        for (name, _) in &FIGURES {
            eprintln!("  {name}");
        }
        return ExitCode::from(2);
    };
    for (name, figure) in figures {
        if let Err(e) = figure() {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
