//! How fast `crc64` checks the inputs the workspace seals, by size.
//!
//! Prints the kernel a long input takes on this CPU (`crc64::kernel`),
//! then the GB/s of `crc64` over one buffer of each size the workspace
//! checks: a 37-byte report, 1 KiB, a 13 KiB WAL frame, an 800 KiB delta
//! link and the 6.7 MB POLINV4 image polbench's `batch_build` writes.
//! Each row is the median of 15 batches of about 64 MB of input.
//!
//! ```sh
//! cargo run --release -p pol-sketch --example crc64_throughput
//! ```

use pol_sketch::crc64::{crc64, kernel};
use std::hint::black_box;
use std::time::Instant;

/// Median GB/s of `crc64` over `buf`, over 15 batches of ~64 MB each.
fn median_gb_per_s(buf: &[u8]) -> f64 {
    let per_batch = (64 << 20) / buf.len().max(1) + 1;
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                black_box(crc64(black_box(buf)));
            }
            (per_batch * buf.len()) as f64 / started.elapsed().as_nanos() as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

fn main() {
    let sizes = [
        ("37 B (a report)", 37),
        ("1 KiB", 1 << 10),
        ("13 KiB (a WAL frame)", 13 << 10),
        ("800 KiB (a delta link)", 800 << 10),
        ("6.7 MB (batch_build's image)", 6_733_337),
    ];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let noise: Vec<u8> = (0..6_733_337)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    println!("kernel: {}", kernel());
    println!("{:<30} {:>8}", "input", "GB/s");
    for (name, len) in sizes {
        println!("{name:<30} {:>8.2}", median_gb_per_s(&noise[..len]));
    }
}
