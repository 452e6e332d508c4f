//! Section 5.10: storage overhead of Prophet.

use prophet::StorageBreakdown;

fn main() {
    prophet_bench::expect_no_args("tab_storage");
    println!("Section 5.10: storage overhead");
    println!("{}", StorageBreakdown::isca25().table());
    println!("\npaper: 48 KB replacement states + 0.19 KB hint buffer + 344 KB MVB");
}
