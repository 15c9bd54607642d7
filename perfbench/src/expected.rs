//! Recorded advised-cost ratios (search cost ÷ FULL STRIPING cost, before
//! the advisor's clamp), as `f64` bit patterns, one per instance. A run
//! must reproduce its instance's value bit for bit. Regenerate with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --record`
//! only when a change is meant to alter search results, and say so.

/// advise-tpch22 and whatif-serve, by TPC-H statement order (`seed mod
/// INSTANCES`).
pub const TPCH22_RATIO_BITS: [u64; 8] = [
    0x3feb1b647f67be6d,
    0x3feb1b647f67be6e,
    0x3feb1b647f67be6d,
    0x3feb1b647f67be6b,
    0x3feb1b647f67be6b,
    0x3feb1b647f67be6d,
    0x3feb1b647f67be6e,
    0x3feb1b647f67be6d,
];

/// advise-mega: WK-MEGA 200×16, the family's default instance.
pub const MEGA_RATIO_BITS: u64 = 0x3ff0ced3fc21b6b3;
