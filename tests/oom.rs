//! Figure 11 as an invariant: the DGL baseline plan for the paper's
//! ablation workloads does not fit an RTX 2080, while the fully-optimized
//! plan does — at a latency comparable to DGL on the RTX 3090.

use gnnopt::bench::{gat_ablation, monet_ablation, run_variants};
use gnnopt::core::CompileOptions;
use gnnopt::graph::datasets;
use gnnopt::sim::Device;

fn dgl_and_ours() -> [(&'static str, CompileOptions); 2] {
    [
        ("DGL", CompileOptions::dgl()),
        ("Ours", CompileOptions::ours()),
    ]
}

#[test]
fn dgl_gat_reddit_needs_3090_ours_fits_2080() {
    let wl = gat_ablation(&datasets::reddit(), false).expect("gat workload");
    let on_2080 = run_variants(&wl, &dgl_and_ours(), true, &Device::rtx2080()).expect("compiles");
    let (dgl_2080, ours_2080) = (&on_2080[0], &on_2080[1]);
    assert!(
        dgl_2080.fits.is_err(),
        "DGL's stash-everything plan must OOM on 8 GB: got {:?}",
        dgl_2080.fits
    );
    assert!(
        ours_2080.fits.is_ok(),
        "the optimized plan must fit 8 GB: got {:?}",
        ours_2080.fits
    );

    // Comparable latency: ours-on-2080 within 2× of DGL-on-3090 (the
    // paper reports parity or better).
    let dgl_3090 = &run_variants(&wl, &dgl_and_ours()[..1], true, &Device::rtx3090())
        .expect("dgl compiles")[0];
    assert!(
        ours_2080.stats.latency < dgl_3090.stats.latency * 2.0,
        "ours on 2080 ({:.1} ms) should be comparable to DGL on 3090 ({:.1} ms)",
        ours_2080.stats.latency * 1e3,
        dgl_3090.stats.latency * 1e3
    );
}

#[test]
fn monet_reddit_memory_ordering_holds_on_both_devices() {
    let wl = monet_ablation(&datasets::reddit()).expect("monet workload");
    for device in [Device::rtx3090(), Device::rtx2080()] {
        let rows = run_variants(&wl, &dgl_and_ours(), true, &device).expect("compiles");
        let (dgl, ours) = (&rows[0], &rows[1]);
        assert!(
            ours.stats.peak_memory < dgl.stats.peak_memory,
            "{}: ours must use less memory",
            device.name
        );
        assert!(
            ours.stats.latency <= dgl.stats.latency,
            "{}: ours must not be slower",
            device.name
        );
    }
}

#[test]
fn oom_reports_name_the_offending_allocation() {
    let wl = gat_ablation(&datasets::reddit(), false).expect("gat workload");
    let dgl = &run_variants(&wl, &dgl_and_ours()[..1], true, &Device::rtx2080())
        .expect("dgl compiles")[0];
    let msg = dgl.fits.as_ref().expect_err("must OOM");
    // The error must carry actionable details: a byte amount at minimum.
    assert!(
        msg.contains("byte") || msg.contains("GiB") || msg.contains("capacity"),
        "unhelpful OOM message: {msg}"
    );
}
