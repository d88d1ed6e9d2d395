//! The experiment implementations. Each function regenerates one table or
//! figure of the paper and writes rows to stdout.

use anomaly_analytic::{
    prob_false_dense_at_most, prob_false_dense_at_most_with_q, prob_vicinity_at_most,
};
use anomaly_simulator::{runner::analyze_step, sweep::sweep_grid, ScenarioConfig, Simulation};

/// The `A` grid of Figures 7–9.
pub const A_VALUES: [usize; 7] = [1, 10, 20, 30, 40, 50, 60];
/// The `G` grid of Figures 7–9.
pub const G_VALUES: [f64; 5] = [0.0, 0.3, 0.5, 0.7, 1.0];

/// Figure 6(a): `P{N_r(j) ≤ m}` as a function of `m` for several radii,
/// `n = 1000`, `d = 2`.
pub fn fig6a() {
    println!("# Figure 6(a) — P{{N_r(j) <= m}} vs m (n = 1000, d = 2)");
    let radii = [0.1, 0.05, 0.033, 0.025, 0.02];
    print!("{:>6}", "m");
    for r in radii {
        print!("  r={r:<7}");
    }
    println!();
    for m in (0..=200).step_by(10) {
        print!("{m:>6}");
        for r in radii {
            print!("  {:<9.5}", prob_vicinity_at_most(1000, r, 2, m));
        }
        println!();
    }
}

/// Figure 6(b): `P{F_r(j) ≤ τ}` as a function of `n` for `τ ∈ {2,…,5}`,
/// `r = 0.03`, `b = 0.005`. Prints both the text model (vicinity radius
/// `2r`, `q = (4r)^d`) and the figure-matching model (radius `r`,
/// `q = (2r)^d`) — see EXPERIMENTS.md for the discrepancy note.
pub fn fig6b() {
    println!("# Figure 6(b) — P{{F_r(j) <= tau}} vs n (r = 0.03, b = 0.005, d = 2)");
    let taus = [2u64, 3, 4, 5];
    for (label, q) in [
        ("text model  q=(4r)^2", (4.0 * 0.03f64).powi(2)),
        ("figure model q=(2r)^2", (2.0 * 0.03f64).powi(2)),
    ] {
        println!("## {label}");
        print!("{:>7}", "n");
        for t in taus {
            print!("  tau={t:<9}");
        }
        println!();
        for n in (1000..=15_000).step_by(2000) {
            print!("{n:>7}");
            for t in taus {
                let p = prob_false_dense_at_most_with_q(n, q, 0.005, t).expect("valid parameters");
                print!("  {:<13.6}", p);
            }
            println!();
        }
    }
    // Cross-check: the generic-q function at q=(4r)^2 equals the text API.
    let a = prob_false_dense_at_most(5000, 0.03, 2, 0.005, 3).unwrap();
    let b = prob_false_dense_at_most_with_q(5000, 0.0144, 0.005, 3).unwrap();
    assert!((a - b).abs() < 1e-12);
}

/// Tables II and III: repartition of `A_k` across `I_k` (Theorem 5),
/// `M_k` (Theorem 6), `U_k` (Corollary 8) and the extra `M_k` devices only
/// Theorem 7 finds — plus the average per-device costs.
///
/// Paper settings: `A = 20`, `n = 1000`, `r = 0.03`, `τ = 3`, `G = ε`,
/// `|A_k| ≈ 95.7`.
pub fn table2_and_3(steps: u64) {
    let config = ScenarioConfig::paper_defaults(20140623); // DSN 2014 dates
    let mut sim = Simulation::new(config).expect("paper defaults are valid");
    let mut tot_abnormal = 0u64;
    let (mut tot_i, mut tot_m6, mut tot_u, mut tot_m7) = (0u64, 0u64, 0u64, 0u64);
    let (mut sum_mi, mut sum_d6, mut sum_cu, mut sum_c7) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..steps {
        let report = analyze_step(&sim.step(), true);
        tot_abnormal += report.abnormal as u64;
        tot_i += report.isolated as u64;
        tot_m6 += report.massive_thm6 as u64;
        tot_u += report.unresolved as u64;
        tot_m7 += report.massive_thm7 as u64;
        sum_mi += report.avg_motions_isolated * report.isolated as f64;
        sum_d6 += report.avg_dense_massive6 * report.massive_thm6 as f64;
        sum_cu += report.avg_collections_unresolved * report.unresolved as f64;
        sum_c7 += report.avg_collections_massive7 * report.massive_thm7 as f64;
    }
    let pct = |x: u64| 100.0 * x as f64 / tot_abnormal.max(1) as f64;
    println!("# Table II — repartition of A_k (A = 20, n = 1000, r = 0.03, tau = 3)");
    println!(
        "  steps = {steps}, mean |A_k| = {:.1}",
        tot_abnormal as f64 / steps as f64
    );
    println!("  {:<28} {:>10} {:>10}", "set (rule)", "ours", "paper");
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "I_k (Theorem 5)",
        pct(tot_i),
        "2.54%"
    );
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "M_k (Theorem 6)",
        pct(tot_m6),
        "88.34%"
    );
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "U_k (Corollary 8)",
        pct(tot_u),
        "8.72%"
    );
    println!(
        "  {:<28} {:>9.2}% {:>10}",
        "M_k extra (Theorem 7)",
        pct(tot_m7),
        "0.4%"
    );

    let avg = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    println!();
    println!("# Table III — average computational cost per device");
    println!("  {:<34} {:>12} {:>12}", "cost (meaning)", "ours", "paper");
    println!(
        "  {:<34} {:>12.2} {:>12}",
        "I_k: maximal motions |M(j)|",
        avg(sum_mi, tot_i),
        "1.85"
    );
    println!(
        "  {:<34} {:>12.2} {:>12}",
        "M_k: dense motions |Wbar(j)|",
        avg(sum_d6, tot_m6),
        "1.17"
    );
    println!(
        "  {:<34} {:>12.1} {:>12}",
        "U_k: collections tested",
        avg(sum_cu, tot_u),
        "31107.9"
    );
    println!(
        "  {:<34} {:>12.1} {:>12}",
        "M_k via Thm 7: collections tested",
        avg(sum_c7, tot_m7),
        "2450150"
    );
}

/// Shared driver for the Figures 7–9 sweeps; prints a `(A × G)` grid of one
/// pooled percentage.
fn print_sweep(title: &str, ylabel: &str, enforce_r3: bool, steps: u64, missed: bool) {
    println!("# {title} (n = 1000, r = 0.03, tau = 3, {steps} steps/point)");
    let base = ScenarioConfig::paper_defaults(2014).with_enforce_r3(enforce_r3);
    let points =
        sweep_grid(&base, &A_VALUES, &G_VALUES, steps, true).expect("paper defaults are valid");
    print!("{:>4}", "A");
    for g in G_VALUES {
        print!("  G={g:<6}");
    }
    println!("   ({ylabel}, %)");
    for (ai, &a) in A_VALUES.iter().enumerate() {
        print!("{a:>4}");
        for gi in 0..G_VALUES.len() {
            let p = &points[ai * G_VALUES.len() + gi];
            let v = if missed {
                p.pooled_missed_pct()
            } else {
                p.pooled_u_ratio_pct()
            };
            print!("  {v:<7.2}");
        }
        println!();
    }
}

/// Figure 7: `|U_k|/|A_k|` vs `A` and `G`, restriction R3 enforced.
pub fn fig7(steps: u64) {
    print_sweep(
        "Figure 7 — |U_k|/|A_k| vs A and G (R3 enforced)",
        "|U|/|A|",
        true,
        steps,
        false,
    );
}

/// Figure 8: missed-detection proportion (isolated errors classified
/// massive) vs `A` and `G`, restriction R3 **not** enforced.
pub fn fig8(steps: u64) {
    print_sweep(
        "Figure 8 — missed detections vs A and G (R3 not enforced)",
        "isolated classified massive",
        false,
        steps,
        true,
    );
}

/// Figure 9: `|U_k|/|A_k|` vs `A` and `G`, restriction R3 **not** enforced.
pub fn fig9(steps: u64) {
    print_sweep(
        "Figure 9 — |U_k|/|A_k| vs A and G (R3 not enforced)",
        "|U|/|A|",
        false,
        steps,
        false,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_functions_run() {
        fig6a();
        fig6b();
    }

    #[test]
    fn tables_run_on_a_tiny_budget() {
        table2_and_3(1);
    }

    #[test]
    fn sweeps_run_on_a_tiny_budget() {
        print_sweep("smoke", "u", true, 1, false);
    }
}
