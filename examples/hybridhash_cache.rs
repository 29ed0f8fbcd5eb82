//! Drive the HybridHash cache policy (Algorithm 1) over a skewed ID stream
//! and watch the hot set converge, then sweep the Hot-storage size like
//! Table VI.
//!
//! ```text
//! cargo run --release --example hybridhash_cache
//! ```

use picasso::data::{IdDistribution, IdSampler};
use picasso::embedding::{HotSetPolicy, HybridHashConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let vocab = 200_000u64;
    let dim = 16usize;
    let sampler = IdSampler::new(vocab, IdDistribution::Zipf { s: 0.9 });

    println!("HybridHash over zipf(0.9), vocab {vocab}, dim {dim}:");
    println!(
        "  {:<12} {:>10} {:>10} {:>9}",
        "hot bytes", "hot rows", "flushes", "hit ratio"
    );
    for hot_mb in [1u64, 4, 16, 64] {
        let cfg = HybridHashConfig {
            warmup_iters: 50,
            flush_iters: 50,
            hot_bytes: hot_mb << 20,
        };
        let mut cache = HotSetPolicy::new(&cfg, dim, Some(vocab as usize));
        let mut rng = StdRng::seed_from_u64(13);
        let mut ids = Vec::new();
        for _ in 0..400 {
            ids.clear();
            sampler.sample_into(&mut rng, 4096, &mut ids);
            cache.measure_batch(&ids);
        }
        let stats = cache.stats();
        println!(
            "  {:<12} {:>10} {:>10} {:>8.1}%",
            format!("{hot_mb} MB"),
            cache.hot_ids().len(),
            stats.flushes,
            stats.hit_ratio() * 100.0,
        );
    }
    println!(
        "\n(top-20% coverage of this stream: {:.0}%)",
        sampler.coverage_of_top(0.2) * 100.0
    );
}
