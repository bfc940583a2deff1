//! Ablation: what the Theorem-1 refutation (§IV) saves. The checker runs
//! it as the 2-monotonicity test on every cache miss; each refutation is
//! a query the paper's flow would otherwise hand to the ILP. The circuits
//! run at ψ = 9, so collapsed nodes reach past tier 0's 5 variables, and
//! tier 0.5 is switched off so that no later tier answers those queries
//! either; each circuit's count of refutations (ILPs not built) is
//! printed next to the ILP solves that did run.

use tels_bench::harness::Criterion;
use tels_bench::{criterion_group, criterion_main};
use tels_circuits::paper_suite;
use tels_core::{synthesize_with_stats, TelsConfig};
use tels_logic::opt::script_algebraic;

fn bench_theorem1(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_theorem1");
    group.sample_size(10);
    let config = TelsConfig {
        psi: 9,
        use_tier05: false,
        ..TelsConfig::default()
    };
    for b in paper_suite() {
        if !matches!(b.name, "comp_like" | "cmb_like" | "term1_like") {
            continue;
        }
        let algebraic = script_algebraic(&b.network);
        group.bench_function(b.name, |bench| {
            bench.iter(|| synthesize_with_stats(&algebraic, &config).expect("synthesize"));
        });
        let (tn, stats) = synthesize_with_stats(&algebraic, &config).expect("synthesize");
        println!(
            "{}: gates {} | {} threshold queries, {} Theorem-1 refutations (ILPs not built), {} ILP solves",
            b.name,
            tn.num_gates(),
            stats.ilp_calls,
            stats.theorem1_refutations,
            stats.ilp_solves
        );
    }
    group.finish();
}

criterion_group!(benches, bench_theorem1);
criterion_main!(benches);
