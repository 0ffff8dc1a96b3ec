//! The kernel planner in action: fingerprint two structurally different
//! graphs (uniform vs power-law), plan both, and compare the chosen
//! kernels side by side with the planner's own rationale. A second
//! `AutoBackend` call on the same shape then demonstrates the warm plan
//! cache: zero additional planning simulations.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```

use hpsparse::autotune::{GraphFingerprint, PlanCache, PlanStrategy, Planner};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::{AutoBackend, SparseBackend};
use hpsparse::kernels::catalog::Op;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Dense;

fn main() {
    let v100 = DeviceSpec::v100();
    let k = 64;

    let uniform = GeneratorConfig {
        nodes: 20_000,
        edges: 200_000,
        topology: Topology::Uniform,
        seed: 7,
    }
    .generate()
    .to_hybrid();
    let power_law = GeneratorConfig {
        nodes: 20_000,
        edges: 200_000,
        topology: Topology::PowerLaw { alpha: 2.0 },
        seed: 7,
    }
    .generate()
    .to_hybrid();

    println!("== Fingerprints: same size, different structure ==\n");
    let fp_u = GraphFingerprint::of(&uniform, k, &v100);
    let fp_p = GraphFingerprint::of(&power_law, k, &v100);
    println!("{:>16} {:>14} {:>14}", "", "uniform", "power-law");
    println!("{:>16} {:>14} {:>14}", "nnz", fp_u.nnz, fp_p.nnz);
    println!(
        "{:>16} {:>14.1} {:>14.1}",
        "mean degree", fp_u.mean_degree, fp_p.mean_degree
    );
    println!(
        "{:>16} {:>14} {:>14}",
        "max degree", fp_u.max_degree, fp_p.max_degree
    );
    println!(
        "{:>16} {:>14.2} {:>14.2}",
        "degree CV", fp_u.degree_cv, fp_p.degree_cv
    );
    println!(
        "{:>16} {:>14.1} {:>14.1}",
        "tail heaviness", fp_u.tail_heaviness, fp_p.tail_heaviness
    );
    println!(
        "{:>16} {:>14} {:>14}",
        "cache key",
        format!("{:08x}…", fp_u.key() >> 32),
        format!("{:08x}…", fp_p.key() >> 32)
    );

    println!("\n== Measured plans ==\n");
    let mut planner = Planner::new(v100.clone(), PlanStrategy::default());
    for (name, s) in [("uniform", &uniform), ("power-law", &power_law)] {
        let plan = planner.plan_spmm(s, k);
        println!("{name}: SpMM → {}", plan.kernel_id);
        println!("    {}", plan.rationale);
        let plan = planner.plan_sddmm(s, k);
        println!("{name}: SDDMM → {}", plan.kernel_id);
        println!("    {}", plan.rationale);
    }
    println!(
        "\nplanning cost so far: {} simulator runs, {:.2} simulated ms",
        planner.sim_launches(),
        v100.cycles_to_ms(planner.planning_cycles())
    );

    println!("\n== Warm cache: the second call replays the plan ==\n");
    let mut backend = AutoBackend::new(v100.clone());
    let a = Dense::from_fn(power_law.cols(), k, |i, j| ((i + j) as f32 * 1e-3).sin());
    backend.spmm(&power_law, &a);
    println!(
        "first call : {} planning runs, {} cache misses, {} hits",
        backend.planning_sim_launches(),
        backend.cache().misses(),
        backend.cache().hits()
    );
    let launches_before = backend.planning_sim_launches();
    backend.spmm(&power_law, &a);
    println!(
        "second call: {} planning runs, {} cache misses, {} hits",
        backend.planning_sim_launches() - launches_before,
        backend.cache().misses(),
        backend.cache().hits()
    );

    // The cache persists: save it, reload it, and the plan is served
    // without any planner at all.
    let path = std::env::temp_dir().join("hpsparse-autotune-example.json");
    backend.into_cache().save(&path).expect("cache saves");
    let mut reloaded = PlanCache::load(&path).expect("cache loads");
    let key = GraphFingerprint::of(&power_law, k, &v100).key();
    let served = reloaded.get(Op::Spmm, key).expect("persisted plan hits");
    println!(
        "\nreloaded from {}: {} replays with zero planning",
        path.display(),
        served.kernel_id
    );
    std::fs::remove_file(&path).ok();
}
