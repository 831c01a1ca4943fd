//! The `figures` binary's dispatch: every figure runs at paper scale
//! (`tune_ablation`'s "the tuner must never lose" asserts included),
//! `all` selects the whole table, and an unknown name fails with the list.

use gnnopt_bench::figures::{select, FIGURES};
use std::process::Command;

/// `reorder_ablation` builds the ~7 M-edge scaled Reddit graph, seconds
/// in a release build; every other figure is milliseconds of model.
#[test]
fn every_figure_but_reorder_ablation_runs_at_paper_scale() {
    for (name, _) in &FIGURES {
        if *name == "reorder_ablation" {
            continue;
        }
        let figures = select(name).expect("every table name selects");
        assert_eq!(figures.len(), 1, "{name}");
        assert_eq!(figures[0].0, *name);
        (figures[0].1)().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn all_covers_the_table_and_unknown_names_fail_with_the_list() {
    let all: Vec<&str> = select("all").expect("all").iter().map(|f| f.0).collect();
    let table: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
    assert_eq!(all, table);
    assert!(select("fig12").is_none());

    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("fig12")
        .output()
        .expect("figures runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let usage = String::from_utf8(out.stderr).expect("utf-8 usage");
    for name in table {
        assert!(usage.contains(name), "usage lacks {name}:\n{usage}");
    }
}
