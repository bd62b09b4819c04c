//! End-to-end pipeline performance: topology generation, config mining,
//! the 13-month scenario simulation, and the full analysis. The paper's
//! methodology is only practical if re-analyzing a year of data takes
//! seconds, not hours.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use faultline_core::{Analysis, AnalysisConfig};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::config::{mine, render_archive};
use faultline_topology::generator::CenicParams;

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topology/generate_cenic", |b| {
        b.iter(|| black_box(CenicParams::default()).generate())
    });
    let topo = CenicParams::default().generate();
    let archive = render_archive(&topo);
    c.bench_function("topology/render_archive", |b| {
        b.iter(|| render_archive(black_box(&topo)))
    });
    c.bench_function("topology/mine_archive", |b| {
        b.iter(|| mine(archive.values().map(String::as_str)))
    });
}

fn bench_scenario(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario");
    g.sample_size(10);
    g.bench_function("tiny_30d", |b| {
        b.iter(|| run(black_box(&ScenarioParams::tiny(1))))
    });
    g.bench_function("paper_389d", |b| {
        b.iter(|| run(black_box(&ScenarioParams::default())))
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let data = run(&ScenarioParams::default());

    // One-shot per-stage timings (the Criterion numbers below aggregate
    // the whole pipeline; these break it down).
    let a = Analysis::run(&data, AnalysisConfig::default());
    eprintln!("pipeline stages:\n{}", a.report);

    let mut g = c.benchmark_group("analysis");
    g.sample_size(10);
    g.bench_function("full_pipeline_paper_scale", |b| {
        b.iter(|| Analysis::run(black_box(&data), AnalysisConfig::default()))
    });
    g.bench_function("table5_statistics", |b| b.iter(|| a.table5()));
    g.bench_function("table3_transition_matching", |b| b.iter(|| a.table3()));
    g.finish();
}

criterion_group!(benches, bench_topology, bench_scenario, bench_analysis);
criterion_main!(benches);
