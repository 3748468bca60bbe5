//! Fig. 8c: execution time of one privacy-preserving k-means iteration,
//! single-threaded vs 4 threads, for m ∈ {50, 100} and k ∈ {50..200}.
//!
//! The paper timed ≈500 clients against its deployment group; sizes here
//! scale with `--full` and the group size with `--bits {64,128,256,512}`.
//!
//! `cargo run --release -p sheriff-experiments --bin fig8c_private_kmeans_timing`

#![expect(
    clippy::disallowed_methods,
    reason = "Fig. 8c reports wall time per k-means iteration"
)]

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sheriff_crypto::GroupParams;
use sheriff_experiments::report::{write_json, Table};
use sheriff_experiments::{seed_from_args, Scale};
use sheriff_kmeans::{run_private_with_init, PrivateConfig};

fn bits_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--bits")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(64)
}

fn main() {
    let seed = seed_from_args();
    let scale = Scale::from_args();
    let bits = bits_from_args();
    let n = match scale {
        Scale::Paper => 500,
        Scale::Demo => 60,
    };
    let ks: Vec<usize> = match scale {
        Scale::Paper => vec![50, 100, 150, 200],
        Scale::Demo => vec![10, 20, 30, 40],
    };
    let params = GroupParams::baked(bits);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("Fig. 8c — private k-means single-iteration time ({n} clients, {bits}-bit group)");
    println!("available parallelism on this host: {cores} core(s)\n");

    let mut table = Table::new(["k", "m", "1 thread", "4 threads", "speedup"]);
    let mut json_rows = Vec::new();
    for &k in &ks {
        for m in [50usize, 100] {
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64) ^ ((m as u64) << 16));
            let scale_q = 8u64;
            let points: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0..=scale_q)).collect())
                .collect();
            let init: Vec<Vec<u64>> = (0..k)
                .map(|_| (0..m).map(|_| rng.gen_range(0..=scale_q)).collect())
                .collect();

            let time_for = |threads: usize| {
                let cfg = PrivateConfig {
                    k,
                    max_iters: 1,
                    halt_changed_fraction: 0.0,
                    scale: scale_q,
                    threads,
                };
                let mut r = StdRng::seed_from_u64(seed);
                let start = Instant::now();
                let _ = run_private_with_init(&params, &points, &cfg, Some(init.clone()), &mut r);
                start.elapsed().as_secs_f64()
            };
            let t1 = time_for(1);
            let t4 = time_for(4);
            table.row([
                k.to_string(),
                m.to_string(),
                format!("{t1:.2}s"),
                format!("{t4:.2}s"),
                format!("{:.2}x", t1 / t4.max(1e-9)),
            ]);
            json_rows.push((k, m, t1, t4));
        }
    }
    println!("{}", table.render());
    println!("paper: execution time grows with k and m; 'the protocol is highly");
    println!("       parallelizable' — on a multi-core host the 4-thread bars shrink");
    println!("       accordingly (the distance phase splits across clients with no");
    println!("       shared mutable state; on a single-core host expect ≈1x).");
    write_json("fig8c_private_kmeans_timing", &json_rows);
}
