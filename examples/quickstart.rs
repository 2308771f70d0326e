//! Quickstart: power on the platform, wait for lock, measure a rate.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ascp::core::prelude::*;
use ascp::sim::stats;
use ascp::sim::units::DegPerSec;

fn main() {
    // The platform as the paper's case study configures it: 15 kHz ring
    // gyro, 12-bit SAR ADCs, ×512 secondary PGA, open-loop sense path,
    // 8051 monitor running the built-in firmware.
    let cfg = PlatformConfig::builder().build().expect("valid config");
    let mut platform = Platform::new(cfg);

    println!("powering on ...");
    let turn_on = platform
        .wait_for_ready(2.0)
        .expect("PLL/AGC failed to lock");
    println!(
        "ready in {:.0} ms  (PLL at {:.1} Hz, drive envelope {:.3} FS)",
        turn_on.to_millis(),
        platform.chain().frequency(),
        platform.chain().envelope(),
    );

    for rate in [0.0, 75.0, -150.0, 300.0] {
        platform.set_rate(DegPerSec(rate));
        let samples = platform.sample_rate_output(0.3, 400);
        let measured = stats::mean(&samples);
        println!(
            "applied {rate:>7.1} °/s  ->  output {:>7.2} °/s  ({:.4} V at the rate pin)",
            measured,
            platform.rate_output().0
        );
    }

    // The 8051 monitor has been streaming 4-byte status frames the whole
    // time. The UART queue keeps only the newest bytes; the total counts
    // every byte sent.
    let frames = platform.cpu_mut().uart_tx_total() / 4;
    println!("monitor CPU streamed ~{frames} UART status frames");
}
