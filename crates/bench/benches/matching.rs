//! Matching and reconstruction scaling: the ±10 s matcher and the state
//! reconstruction are run repeatedly by the window-sweep and strategy
//! ablations, so their complexity in the failure count matters.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use faultline_core::linktable::LinkIx;
use faultline_core::matching::match_failures;
use faultline_core::reconstruct::{reconstruct, AmbiguityStrategy};
use faultline_core::transitions::LinkTransition;
use faultline_core::Failure;
use faultline_isis::listener::TransitionDirection;
use faultline_topology::time::{Duration, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synth_failures(n: usize, links: u32, seed: u64) -> Vec<Failure> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fails: Vec<Failure> = (0..n)
        .map(|_| {
            let start = rng.random_range(0..10_000_000u64);
            Failure {
                link: LinkIx(rng.random_range(0..links)),
                start: Timestamp::from_secs(start),
                end: Timestamp::from_secs(start + rng.random_range(1u64..600)),
            }
        })
        .collect();
    fails.sort_by_key(|f| (f.link, f.start));
    fails
}

fn synth_transitions(n: usize, links: u32) -> Vec<LinkTransition> {
    (0..n)
        .map(|i| LinkTransition {
            at: Timestamp::from_secs(i as u64 * 30),
            link: LinkIx(i as u32 % links),
            direction: if (i / links as usize).is_multiple_of(2) {
                TransitionDirection::Down
            } else {
                TransitionDirection::Up
            },
        })
        .collect()
}

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("match_failures");
    for n in [1_000usize, 10_000, 25_000] {
        let left = synth_failures(n, 300, 1);
        let right = synth_failures(n, 300, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| match_failures(black_box(&left), black_box(&right), Duration::from_secs(10)))
        });
    }
    g.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let transitions = synth_transitions(50_000, 300);
    c.bench_function("reconstruct/50k_transitions", |b| {
        b.iter(|| reconstruct(black_box(&transitions), AmbiguityStrategy::PreviousState))
    });
}

criterion_group!(benches, bench_matching, bench_reconstruct);
criterion_main!(benches);
