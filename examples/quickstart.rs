//! Quickstart: the paper's running example, end to end.
//!
//! 1. Reproduces Figure 1 of the paper (the worked encryption example with
//!    g = 2, n = 35, column key ⟨2, 2⟩).
//! 2. Runs the §2.2 rewriting example — `SELECT A * B AS C FROM T` — through the
//!    full system: upload with sensitive columns, rewriting into `SDB_MULTIPLY`,
//!    execution at the SP over shares, decryption at the proxy.
//!
//! Run with: `cargo run --example quickstart`

use num_bigint::BigUint;
use sdb::{SdbClient, SdbConfig};
use sdb_crypto::share::{decrypt_value, encrypt_value, gen_item_key};
use sdb_crypto::{ColumnKey, SystemKey};

fn figure1() {
    println!("=== Paper Figure 1: encryption procedure (g = 2, n = 35) ===");
    let key = SystemKey::from_parts(5u32.into(), 7u32.into(), 2u32.into());
    let ck_a = ColumnKey::new(BigUint::from(2u32), BigUint::from(2u32));
    println!("  column key ck_A = <2, 2>, public n = {}", key.n());
    println!("  row-id | value | item key | encrypted value");
    for (row_id, value) in [(1u32, 2u32), (2, 4), (8, 3)] {
        let ik = gen_item_key(&key, &ck_a, &BigUint::from(row_id));
        let ve = encrypt_value(&key, &BigUint::from(value), &ik);
        let back = decrypt_value(&key, &ve, &ik);
        println!("    {row_id:>4}  |  {value:>3}  |  {ik:>7}  |  {ve:>4}   (decrypts to {back})");
    }
    println!();
}

fn rewriting_example() -> sdb::Result<()> {
    println!("=== Paper §2.2: SELECT A * B AS C FROM T ===");
    // Keys from the OS: the profiles alone are fixtures keyed by a public seed.
    let mut client = SdbClient::new(SdbConfig::test_profile().entropy_keyed())?;
    client.execute("CREATE TABLE t (id INT, a INT SENSITIVE, b INT SENSITIVE)")?;
    client.execute("INSERT INTO t VALUES (1, 6, 7), (2, 21, 2), (3, -5, 9)")?;
    client.upload_all()?;
    println!("  key store size: {} bytes", client.keystore_size_bytes());
    println!(
        "  SP storage size: {} bytes\n",
        client.sp_storage_size_bytes()
    );

    let result = client.query("SELECT id, a * b AS c FROM t ORDER BY id")?;
    println!("  rewritten query sent to the SP:");
    println!("    {}\n", result.rewritten_sql);
    println!("  decrypted result at the proxy:");
    for row in result.rows() {
        println!("    id = {}, c = {}", row[0], row[1]);
    }
    println!(
        "\n  client cost: parse {:?} + rewrite {:?} + decrypt {:?}",
        result.client_cost.parse, result.client_cost.rewrite, result.client_cost.decrypt
    );
    println!("  server cost: {:?}", result.server_stats.server_time());
    Ok(())
}

fn main() {
    figure1();
    if let Err(e) = rewriting_example() {
        eprintln!("example failed: {e}");
        std::process::exit(1);
    }
}
