//! Integration test: what the data owner sends the SP when it uploads tiny
//! TPC-H and then INSERTs two rows is pinned byte for byte, under the test
//! (256-bit), the balanced (512-bit) and the paper (2048-bit, 32-limb) key
//! profiles. The paper profile's test runs only in an optimised build
//! (`cargo test --release --test upload_digests`).
//!
//! The payloads are the SP tables' JSON — every encrypted row id, share and
//! tag — so any change to how the DO derives item keys or encrypts (the
//! arithmetic behind them may change; the residues may not) moves a digest,
//! and so does any change to what the profiles' fixture generator
//! (`Drbg::seed_from_u64(0x5db)`) draws, or in which order.

use sdb::{SdbClient, SdbConfig, WireMessageKind};
use sdb_workload::{generate_all, ScaleFactor, SensitivityProfile};

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest and length of every upload payload — the eight tables, then
/// two post-upload INSERTs into `orders` — in the order they were sent.
fn upload_digest(config: SdbConfig) -> (u64, usize) {
    let mut client = SdbClient::new(config).expect("client");
    let capture = client.wire().capture();
    for table in generate_all(
        ScaleFactor::tiny(),
        SensitivityProfile::Financial,
        0x7c9_2015,
    ) {
        client.stage_table(table).expect("stage");
    }
    client.upload_all().expect("upload");
    for (key, price) in [(900_001, "1234.56"), (900_002, "-0.07")] {
        client
            .execute(&format!(
                "INSERT INTO orders VALUES ({key}, 7, 'O', {price}, DATE '1996-03-14', '3-MEDIUM', 0)"
            ))
            .expect("insert");
    }
    let uploads: Vec<String> = (capture.messages().into_iter())
        .filter(|message| message.kind == WireMessageKind::Upload)
        .map(|message| message.payload)
        .collect();
    assert_eq!(uploads.len(), 10, "eight tables and two INSERTs");
    let all = uploads.join("\n");
    (fnv1a(all.as_bytes()), all.len())
}

#[test]
fn the_test_profile_upload_is_byte_identical() {
    let (digest, bytes) = upload_digest(SdbConfig::test_profile());
    assert_eq!(
        (format!("{digest:016x}"), bytes),
        (String::from("3444adc502eb2a03"), 54_260)
    );
}

#[test]
fn the_balanced_profile_upload_is_byte_identical() {
    let (digest, bytes) = upload_digest(SdbConfig::balanced_profile());
    assert_eq!(
        (format!("{digest:016x}"), bytes),
        (String::from("241d7bb6dac810db"), 76_992)
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "2048-bit keys: run with --release")]
fn the_paper_profile_upload_is_byte_identical() {
    let (digest, bytes) = upload_digest(SdbConfig::paper_profile());
    assert_eq!(
        (format!("{digest:016x}"), bytes),
        (String::from("45a039ffb744bca3"), 209_352)
    );
}
