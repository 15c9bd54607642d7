//! Plan identity: every plan the optimizer produces for the committed
//! workloads is pinned against recorded output.
//!
//! TPC-H 22 at SF1 is pinned as full text — one `Debug` line per query in
//! `golden/tpch22_sf1_plans.txt` (`Debug` prints every `f64` in its
//! shortest round-trip form, so equal text means bit-equal estimates). The
//! larger workloads are pinned as one FNV-1a 64-bit digest each over the
//! same per-statement `Debug` lines. Any change to join enumeration order,
//! cost arithmetic or frontier tie-breaking that alters a single operator,
//! row estimate or block count fails here.
//!
//! On a text mismatch the actual output is written to Cargo's temporary
//! directory for integration tests (`target/tmp/`; the panic message names
//! the file), so an intended plan change is re-recorded by copying that
//! file over the golden one.

use dblayout_audit::fnv1a;
use dblayout_catalog::apb::apb_catalog;
use dblayout_catalog::sales::sales_catalog;
use dblayout_catalog::tpch::tpch_catalog;
use dblayout_catalog::Catalog;
use dblayout_planner::plan_statement;
use dblayout_sql::parse_statement;
use dblayout_workloads::apb800::apb800;
use dblayout_workloads::qgen::validation_workloads;
use dblayout_workloads::sales45::sales45;
use dblayout_workloads::tpch22::tpch22;

const TPCH22_SF1_GOLDEN: &str = include_str!("golden/tpch22_sf1_plans.txt");

/// One line per statement: the plan's `Debug` form, or the planning error.
fn plan_lines(catalog: &Catalog, queries: &[String]) -> String {
    let mut out = String::new();
    for (i, sql) in queries.iter().enumerate() {
        let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("query {i}: {e}"));
        match plan_statement(catalog, &stmt) {
            Ok(plan) => out.push_str(&format!("{i}: {plan:?}\n")),
            Err(e) => out.push_str(&format!("{i}: error {e:?}\n")),
        }
    }
    out
}

fn digest(catalog: &Catalog, queries: &[String]) -> String {
    format!("{:016x}", fnv1a(plan_lines(catalog, queries).as_bytes()))
}

#[test]
fn tpch22_sf1_plans_match_recorded_text() {
    let actual = plan_lines(&tpch_catalog(1.0), &tpch22());
    if actual != TPCH22_SF1_GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tpch22_sf1_plans.txt");
        std::fs::write(&path, &actual).expect("write actual plans");
        let first = actual
            .lines()
            .zip(TPCH22_SF1_GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or("a missing or extra line".to_string(), |i| {
                format!("query {i}")
            });
        panic!(
            "TPC-H 22 plans differ from the recorded text (first at {first}); actual output written to {}",
            path.display()
        );
    }
}

#[test]
fn apb800_plan_digest_is_recorded() {
    assert_eq!(digest(&apb_catalog(), &apb800(1)), "4c854bb085359812");
}

#[test]
fn sales45_plan_digest_is_recorded() {
    assert_eq!(digest(&sales_catalog(), &sales45(1)), "ffc237db53c2c55e");
}

#[test]
fn qgen_validation_plan_digests_are_recorded() {
    let catalog = tpch_catalog(1.0);
    let digests: Vec<String> = validation_workloads()
        .iter()
        .map(|w| digest(&catalog, w))
        .collect();
    assert_eq!(
        digests,
        [
            "e06076ae73dda56d",
            "bf056c00fc89f84f",
            "a1af0efb4aa31289",
            "8601418c35a6eea1",
            "672c00d92d8108e3",
        ]
    );
}
