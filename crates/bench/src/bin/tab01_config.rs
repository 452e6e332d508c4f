//! Table 1: the evaluated system configuration.

use prophet_sim_mem::SystemConfig;

fn main() {
    prophet_bench::expect_no_args("tab01_config");
    println!("Table 1: System Configuration");
    println!("{}", SystemConfig::isca25().table1());
}
