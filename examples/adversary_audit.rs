//! Demo step 3 (experiment E4): the adversary's view of the service provider.
//!
//! While queries run, an administrator-level attacker can read the SP's disk and
//! memory (DB knowledge) and watch the traffic between proxy and SP (QR knowledge).
//! This example runs a query workload, then scans everything that attacker could
//! see — the stored catalog and every wire message — for the sensitive plaintexts
//! that were uploaded, and prints the verdict. The audit is the example's own:
//! it registers the plaintext it stages and captures the wire from the upload
//! on, as any test of the system does; the client keeps neither.
//!
//! Run with: `cargo run --release --example adversary_audit` (exits 1 on a
//! finding).

use sdb::{MemoryAuditor, SdbClient, SdbConfig};
use sdb_workload::{generate_all, query_by_id, ScaleFactor, SensitivityProfile};

fn main() -> sdb::Result<()> {
    println!("=== Demo step 3: memory / wire dump audit at the SP ===\n");

    let mut client = SdbClient::new(SdbConfig::test_profile())?;
    let mut auditor = MemoryAuditor::new();
    for table in generate_all(ScaleFactor::tiny(), SensitivityProfile::Financial, 31_337) {
        auditor.register_table(&table);
        client.stage_table(table)?;
    }
    let capture = client.wire().capture();
    client.upload_all()?;

    for id in [1u8, 3, 6, 10, 14, 18, 22] {
        let template = query_by_id(id).expect("template");
        let result = client.query(template.sql)?;
        println!(
            "ran Q{id:<2} ({:<28}) -> {:>4} rows, {} oracle round trips",
            template.name,
            result.batch.num_rows(),
            result.server_stats.oracle_round_trips
        );
    }

    println!("\nWhat the attacker can observe:");
    println!(
        "  SP storage snapshot : {} bytes",
        client.sp_storage_size_bytes()
    );
    println!(
        "  wire messages       : {} ({} bytes)",
        capture.messages().len(),
        client.wire().total_bytes()
    );

    let report = auditor.audit_client(&client, &capture);
    println!(
        "\nAudit: scanned {} haystacks for {} sensitive plaintext needles",
        report.haystacks_scanned, report.needles_checked
    );
    if report.is_clean() {
        println!("  ✔ no sensitive plaintext observed anywhere at the SP or on the wire");
        println!(
            "  (sensitive data remains encrypted during the entire computation — paper Figure 4)"
        );
    } else {
        println!("  ✘ LEAKS FOUND:");
        for finding in &report.findings {
            println!("    {} leaked in {}", finding.needle, finding.location);
        }
        std::process::exit(1);
    }
    Ok(())
}
