//! Fig. 9 + §6.2: analysis of the live dataset — domains with the most
//! requests showing price differences, and the magnitude (box plots) of the
//! normalized differences per domain. Also validates detection against the
//! world's ground truth.
//!
//! `cargo run --release -p sheriff-experiments --bin fig9_live_analysis [--full]`

use sheriff_core::analysis::analyze_domains;
use sheriff_experiments::liveworld::{run_live_study, TruthCheck, FIG9_EPSILON};
use sheriff_experiments::report::{ascii_box, write_json, Table};
use sheriff_experiments::{seed_from_args, Scale};
use sheriff_stats::BoxStats;

fn main() {
    let scale = Scale::from_args();
    let seed = seed_from_args();
    let ds = run_live_study(scale, seed);
    let analyses = analyze_domains(&ds.checks, FIG9_EPSILON);

    // §6.2 headline: how many of the checked domains showed any difference.
    let with_diff: Vec<_> = analyses
        .iter()
        .filter(|a| a.requests_with_difference > 0)
        .collect();
    let checked = analyses.len();
    println!(
        "§6.2 — {} of {} checked domains returned differing prices ({:.1}%; paper: 76/1994 = 3.8%)\n",
        with_diff.len(),
        checked,
        100.0 * with_diff.len() as f64 / checked as f64
    );

    // Fig. 9: top domains by differing requests, with difference box plots.
    let mut ranked = with_diff.clone();
    ranked.sort_by_key(|a| std::cmp::Reverse(a.requests_with_difference));
    println!("Fig. 9 — domains with most differing requests (spread = (max-min)/min)\n");
    let mut table = Table::new(["Domain", "#diff req", "median", "box [0 .. 100%+]"]);
    for a in ranked.iter().take(29) {
        let stats = BoxStats::compute(&a.spreads).expect("has spreads");
        table.row([
            a.domain.clone(),
            a.requests_with_difference.to_string(),
            format!("{:.0}%", a.median_spread().unwrap_or(0.0) * 100.0),
            ascii_box(&stats, 0.0, 1.0, 36),
        ]);
    }
    println!("{}", table.render());

    // Validation against ground truth.
    let truth = TruthCheck::new(&ds, &analyses);
    println!("ground-truth validation:");
    println!(
        "  location-PD detection: {} true positives, {} false positives (of {} true domains)",
        truth.true_positives,
        truth.false_positives,
        ds.truth_discriminating.len()
    );
    println!(
        "  within-country candidates: {:?} (truth: {:?})",
        truth.within_country, ds.truth_within_country
    );
    println!("\npaper: medians mostly 20–30% (digitalrev, luisaviaroma, overstock, steampowered,");
    println!(
        "       suitsupply) with abercrombie/jcpenney near 40%; 7 domains varied within-country."
    );

    let json: Vec<(String, usize, f64)> = ranked
        .iter()
        .map(|a| {
            (
                a.domain.clone(),
                a.requests_with_difference,
                a.median_spread().unwrap_or(0.0),
            )
        })
        .collect();
    write_json("fig9_live_analysis", &json);
}
