//! §I / §V-B — memory accounting: "the precomputation requires storing an
//! exponentially-sized vector, increasing the memory footprint of the
//! simulation by only 12.5 %" (u16 cost values against complex128
//! amplitudes; LABS costs fit u16 for n < 65).
//!
//! The last columns are the diagonal the default simulator
//! (`FurSimulator::new`) actually stores: LABS is coded, 2 bytes per entry
//! plus 8 per distinct cost. `QOKIT_BENCH_FAST=1` stops at n = 14.

use qokit_bench::{bench_n, fast_mode, print_table};
use qokit_core::{FurSimulator, QaoaSimulator};
use qokit_costvec::{precompute_fwht, CostVec};
use qokit_statevec::Backend;
use qokit_terms::labs::labs_terms;

fn mib(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
}

fn main() {
    let max_n = bench_n(if fast_mode() { 14 } else { 20 });
    let mut rows = Vec::new();
    let mut n = 12;
    while n <= max_n {
        let poly = labs_terms(n);
        let costs = precompute_fwht(&poly, Backend::Rayon);
        let state_bytes = (1usize << n) * qokit_statevec::AMP_BYTES;
        let f64_vec = CostVec::F64(costs.clone());
        let u16_vec = CostVec::quantize_exact(&costs, 1.0).expect("LABS costs are integral");
        let sim = FurSimulator::new(&poly);
        let default = sim.cost_diagonal();
        assert!(
            matches!(default, CostVec::Coded { .. }),
            "n = {n}: the default LABS diagonal must be coded"
        );
        let (lo, hi) = u16_vec.extrema();
        rows.push(vec![
            n.to_string(),
            mib(state_bytes),
            mib(f64_vec.memory_bytes()),
            format!("{:.1}%", 100.0 * f64_vec.overhead_vs_state()),
            mib(u16_vec.memory_bytes()),
            format!("{:.1}%", 100.0 * u16_vec.overhead_vs_state()),
            mib(default.memory_bytes()),
            format!("{:.1}%", 100.0 * default.overhead_vs_state()),
            format!("[{lo:.0}, {hi:.0}]"),
        ]);
        n += 2;
    }
    print_table(
        "Memory overhead of the cost vector (LABS)",
        &[
            "n",
            "state",
            "f64 costs",
            "overhead",
            "u16 costs",
            "overhead",
            "default sim",
            "overhead",
            "cost range",
        ],
        &rows,
    );
    println!("\n(paper: +12.5% with u16 storage; exact for LABS since all costs are integers\n and spans stay far below 2^16 at these sizes. \"default sim\" is FurSimulator::new,\n which codes the diagonal without rounding: 2 bytes per entry plus 8 per distinct cost)");
}
