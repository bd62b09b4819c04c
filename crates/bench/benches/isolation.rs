//! Customer-isolation analysis performance: the §4.4 sweep walks every
//! failure component against the topology graph; reachability queries
//! dominate.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use faultline_core::linktable::LinkIx;
use faultline_core::{isolation, Failure};
use faultline_sim::scenario::{run, ScenarioParams};
use faultline_topology::generator::CenicParams;
use faultline_topology::graph::LinkStateView;
use faultline_topology::link::LinkId;
use faultline_topology::time::Timestamp;

fn bench_reachability(c: &mut Criterion) {
    let topo = CenicParams::default().generate();
    let mut view = LinkStateView::all_up(&topo);
    // Take a handful of links down so BFS does real work.
    for i in (0..topo.links().len()).step_by(7) {
        view.set_down(LinkId(i as u32));
    }
    let cpe = topo
        .customers()
        .first()
        .and_then(|c| c.cpe_routers.first())
        .copied()
        .expect("customer with router");
    c.bench_function("graph/reaches_core", |b| {
        b.iter(|| black_box(&view).reaches_core(cpe))
    });
    c.bench_function("graph/isolated_customers_full_scan", |b| {
        b.iter(|| black_box(&view).isolated_customers())
    });
}

fn bench_isolation_analysis(c: &mut Criterion) {
    let data = run(&ScenarioParams::default());
    let topo = &data.topology;
    let map: Vec<Option<LinkId>> = (0..topo.links().len() as u32)
        .map(|i| Some(LinkId(i)))
        .collect();
    // Use the ground truth failures as the densest realistic input.
    let mut failures: Vec<Failure> = data
        .truth
        .failures
        .iter()
        .map(|f| Failure {
            link: LinkIx(f.link.0),
            start: f.start,
            end: f.end,
        })
        .collect();
    failures.sort_by_key(|f| (f.link, f.start));
    let mut g = c.benchmark_group("isolation");
    g.sample_size(10);
    g.bench_function("analyze_13_months", |b| {
        b.iter(|| isolation::analyze(black_box(&failures), topo, &map))
    });
    g.finish();

    let spans_a = vec![(Timestamp::from_secs(0), Timestamp::from_secs(100))];
    let spans_b = vec![(Timestamp::from_secs(50), Timestamp::from_secs(150))];
    c.bench_function("isolation/intersect_spans", |b| {
        b.iter(|| isolation::intersect_spans(black_box(&spans_a), black_box(&spans_b)))
    });
}

criterion_group!(benches, bench_reachability, bench_isolation_analysis);
criterion_main!(benches);
