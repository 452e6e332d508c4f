//! Table 1: the evaluated system configuration.

use prophet_sim_mem::SystemConfig;

fn main() {
    prophet_bench::RunArgs::parse_or_exit("tab01_config", &[]);
    println!("Table 1: System Configuration");
    println!("{}", SystemConfig::isca25().table1());
}
