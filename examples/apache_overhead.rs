//! Serve files through the Apache-like guest and watch SHIFT's overhead
//! disappear into I/O time — the Figure 6 effect, interactively.
//!
//! ```sh
//! cargo run --release --example apache_overhead
//! ```

use shift_core::{FleetReport, Granularity, Mode, ShiftOptions};
use shift_workloads::apache::{apache_fleet, fleet_connections, fleet_world, ApacheStream};

/// Serves one connection of `requests` requests for a `size`-byte file.
fn serve(mode: Mode, size: usize, requests: usize) -> FleetReport {
    let stream = ApacheStream::Uniform(size);
    apache_fleet(mode).serve(&fleet_world(stream), &fleet_connections(stream, 1, requests), 1)
}

fn main() {
    let requests = 6;
    println!("Apache-like server, {requests} requests per configuration\n");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12}",
        "file size", "base cycles", "shift cycles", "cpu ratio", "e2e overhead"
    );
    println!("{:-<68}", "");
    for size in [4 << 10, 16 << 10, 128 << 10] {
        let base = serve(Mode::Uninstrumented, size, requests);
        let inst = serve(Mode::Shift(ShiftOptions::baseline(Granularity::Byte)), size, requests);
        assert_eq!(base.served, requests as u64);
        assert_eq!(inst.served, requests as u64);
        println!(
            "{:<10} {:>14} {:>14} {:>11.2}x {:>11.2}%",
            format!("{} KB", size >> 10),
            base.stats.cycles,
            inst.stats.cycles,
            inst.stats.cycles as f64 / base.stats.cycles as f64,
            (inst.stats.total_time() as f64 / base.stats.total_time() as f64 - 1.0) * 100.0,
        );
    }
    println!("{:-<68}", "");
    println!(
        "\nThe CPU does 2–4x the work under instrumentation, but requests are\n\
         dominated by network/disk wait — end-to-end the paper (and this\n\
         reproduction) sees only a few percent. Run the full sweep with:\n\
         cargo bench --bench fig6_apache"
    );
}
