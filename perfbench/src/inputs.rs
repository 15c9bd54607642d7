//! Seeded inputs. The program under test sees only what these functions
//! generate.
//!
//! A seed selects one of [`INSTANCES`] instances (`seed mod INSTANCES`):
//! the order of the TPC-H 22 statements, and the seeded streams of
//! candidate layouts and operations. Every TPC-H order has its
//! advised-cost ratio recorded in [`crate::expected`], checked bit for
//! bit.

use dblayout_disksim::{DiskSpec, Layout};
use dblayout_workloads::tpch22::tpch_query;
use dblayout_workloads::wkmega::{generate, MegaConfig, MegaInstance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Instances a seed selects among.
pub const INSTANCES: u64 = 8;

/// The catalog every TPC-H workload runs on: the paper's TPCH1G.
pub const TPCH_CATALOG: &str = "tpch:1";

/// WK-MEGA shape of the advise-mega workload.
pub const MEGA_OBJECTS: usize = 200;
pub const MEGA_DISKS: usize = 16;

pub fn instance(seed: u64) -> u64 {
    seed % INSTANCES
}

/// The 22 TPC-H query numbers in the instance's order: the specification
/// order for instance 0, a seeded permutation otherwise.
pub fn tpch22_order(instance: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (1..=22).collect();
    if instance != 0 {
        order.shuffle(&mut StdRng::seed_from_u64(instance));
    }
    order
}

/// TPC-H 22 as one workload file, queries in the instance's order.
pub fn tpch22_text(instance: u64) -> String {
    tpch22_order(instance)
        .into_iter()
        .map(|q| format!("{};\n", tpch_query(q)))
        .collect()
}

/// WK-MEGA 200×16 from the family's default seed, for every run seed.
/// Other instances of the family — other generator seeds, or this one
/// with its objects relabelled — run clean but move the search time by up
/// to 20% and the advised-cost ratio by up to 11% (NOTES.md), so a
/// seed-dependent instance would make every seed a different benchmark.
pub fn mega_instance() -> MegaInstance {
    generate(&MegaConfig::scaled(
        MEGA_OBJECTS,
        MEGA_DISKS,
        MegaConfig::default().seed,
    ))
}

/// The statements advise-mega appends on its write path: a WK-MEGA
/// instance of the same shape from another generator seed.
pub fn mega_extra_statements(seed: u64) -> Vec<(Vec<dblayout_planner::Subplan>, f64)> {
    generate(&MegaConfig::scaled(
        MEGA_OBJECTS,
        MEGA_DISKS,
        MegaConfig::default().seed + 1 + instance(seed),
    ))
    .workload
}

/// Seeded candidate layouts, each passing `Layout::validate`: FULL
/// STRIPING with about a third of the objects re-placed onto a random
/// subset of the disks (rate-proportional, as the search places them).
pub fn candidate_layouts(
    sizes: &[u64],
    disks: &[DiskSpec],
    count: usize,
    rng: &mut StdRng,
) -> Vec<Layout> {
    let base = Layout::full_striping(sizes.to_vec(), disks);
    let mut ids: Vec<usize> = (0..disks.len()).collect();
    (0..count)
        .map(|_| {
            let mut l = base.clone();
            for obj in 0..sizes.len() {
                if rng.gen_range(0..3) != 0 {
                    continue;
                }
                ids.shuffle(rng);
                let width = rng.gen_range(1..=disks.len());
                let mut set = ids[..width].to_vec();
                set.sort_unstable();
                l.place_proportional(obj, &set, disks);
                if l.validate(disks).is_err() {
                    l.copy_row_from(&base, obj);
                }
            }
            l
        })
        .collect()
}

/// Every placement fraction's bit pattern, row by row.
pub fn layout_bits(l: &Layout) -> Vec<u64> {
    (0..l.object_count())
        .flat_map(|i| l.fractions_of(i).iter().map(|f| f.to_bits()))
        .collect()
}
