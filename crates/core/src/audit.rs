//! The adversarial audit (experiment E4, demo step 3).
//!
//! The demo invites an attendee to inspect a memory dump of the SP while queries
//! run and observe that sensitive data never appears in plaintext. This module is
//! the automated version of that step: the caller registers every representation
//! of the sensitive plaintexts it uploaded or inserted (raw renderings and the
//! scaled integer units that actually get encrypted) and scans everything the SP
//! holds — the stored catalog, intermediate and final (encrypted) results, and
//! the wire traffic a [`WireCapture`] kept — for occurrences. It is a test of the
//! system, not a runtime defence: no client or server holds an auditor.

use std::collections::BTreeSet;

use num_bigint::BigUint;
use sdb_crypto::wire;
use sdb_storage::persist::CatalogSnapshot;
use sdb_storage::{Table, Value};

use crate::{SdbClient, WireCapture};

/// A single place where a sensitive plaintext was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Which haystack leaked (e.g. "sp-catalog", "wire-traffic").
    pub location: String,
    /// The needle that was found.
    pub needle: String,
}

/// The outcome of an audit run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Number of distinct sensitive needles checked.
    pub needles_checked: usize,
    /// Number of haystacks scanned.
    pub haystacks_scanned: usize,
    /// Every leak found (empty = the system behaved as the paper claims).
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// True when no sensitive plaintext was observed anywhere at the SP.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scans SP-visible byte strings for sensitive plaintexts.
#[derive(Debug, Default, Clone)]
pub struct MemoryAuditor {
    needles: BTreeSet<String>,
}

impl MemoryAuditor {
    /// Creates an empty auditor.
    pub fn new() -> Self {
        MemoryAuditor::default()
    }

    /// Registers every value of `table`'s sensitive columns (per its
    /// schema's sensitivity markers) with [`Self::register_value`].
    pub fn register_table(&mut self, table: &Table) {
        let batch = table.scan();
        for (col, def) in table.schema().columns().iter().enumerate() {
            if def.sensitivity.is_sensitive() {
                for row in 0..batch.num_rows() {
                    self.register_value(&batch.column(col).value(row));
                }
            }
        }
    }

    /// Registers one sensitive value.
    ///
    /// Numeric values become needles only when they have at least six significant
    /// digits: shorter numbers (small quantities, sizes, …) collide with unrelated
    /// public integers such as keys and dates and would drown the audit in false
    /// positives — exactly as a human inspecting the demo's memory dump would look
    /// for *their* distinctive figures, not for every small number. Numeric needles
    /// are matched with digit boundaries (see [`MemoryAuditor::audit`]) so they are
    /// not "found" inside the long digit strings of ciphertexts. Each numeric
    /// needle's units are also registered in the form a share takes on the
    /// wire — the quoted base64 text of their magnitude (see
    /// [`sdb_crypto::wire`]) — so a plaintext that travelled where a share
    /// should is found too; the quotes bound the token, so it never matches
    /// inside a longer string.
    pub fn register_value(&mut self, value: &Value) {
        const NUMERIC_THRESHOLD: i64 = 100_000;
        match value {
            Value::Null => {}
            Value::Str(s) => {
                if s.len() >= 3 {
                    self.needles.insert(s.clone());
                }
            }
            Value::Int(v) => {
                if v.abs() >= NUMERIC_THRESHOLD {
                    self.needles.insert(v.to_string());
                    self.needles.insert(wire_needle(v.unsigned_abs()));
                }
            }
            Value::Decimal { units, .. } => {
                if units.abs() >= NUMERIC_THRESHOLD {
                    self.needles.insert(units.to_string());
                    self.needles.insert(value.render());
                    self.needles.insert(wire_needle(units.unsigned_abs()));
                }
            }
            Value::Date(d) => {
                self.needles.insert(format!("\"Date\":{d}"));
            }
            other => {
                self.needles.insert(other.render());
            }
        }
    }

    /// Number of registered needles.
    pub fn needle_count(&self) -> usize {
        self.needles.len()
    }

    /// Scans what the client's SP holds (`sp-storage`, its catalog as JSON)
    /// and what `capture` kept of the client's wire (`wire-traffic`).
    pub fn audit_client(&self, client: &SdbClient, capture: &WireCapture) -> AuditReport {
        let snapshot = CatalogSnapshot::capture(client.engine().catalog());
        let storage = serde_json::to_string(&snapshot).unwrap_or_default();
        let wire = capture.concatenated_payloads();
        self.audit([("sp-storage", &*storage), ("wire-traffic", &*wire)])
    }

    /// Scans the given named haystacks, returning a report.
    ///
    /// Needles that are purely numeric are matched on digit boundaries: a match
    /// inside a longer run of digits (e.g. somewhere in the decimal expansion of a
    /// 256-bit ciphertext) does not count, because it carries no information about
    /// the plaintext. Textual needles use plain substring matching.
    pub fn audit<'a>(
        &self,
        haystacks: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> AuditReport {
        let mut report = AuditReport {
            needles_checked: self.needle_count(),
            ..Default::default()
        };
        for (location, haystack) in haystacks {
            report.haystacks_scanned += 1;
            for needle in &self.needles {
                if contains_needle(haystack, needle) {
                    report.findings.push(AuditFinding {
                        location: location.to_string(),
                        needle: needle.clone(),
                    });
                }
            }
        }
        report
    }
}

/// A magnitude as a share on the wire: its quoted base64 text.
fn wire_needle(magnitude: u64) -> String {
    format!("\"{}\"", wire::share::to_text(&BigUint::from(magnitude)))
}

/// Substring search with digit-boundary handling for numeric needles.
fn contains_needle(haystack: &str, needle: &str) -> bool {
    let numeric = needle
        .chars()
        .all(|c| c.is_ascii_digit() || c == '-' || c == '.');
    if !numeric {
        return haystack.contains(needle);
    }
    let bytes = haystack.as_bytes();
    for (position, _) in haystack.match_indices(needle) {
        let before_ok = position == 0 || {
            let b = bytes[position - 1];
            !b.is_ascii_digit() && b != b'.'
        };
        let end = position + needle.len();
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !b.is_ascii_digit() && b != b'.'
        };
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdb_storage::{ColumnDef, DataType, Schema};

    fn table_with_secret() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::public("id", DataType::Int),
            ColumnDef::sensitive("salary", DataType::Int),
            ColumnDef::sensitive("codename", DataType::Varchar),
        ]);
        let mut t = Table::new("t", schema);
        t.insert_row(vec![
            Value::Int(1),
            Value::Int(987_654),
            Value::Str("operation condor".into()),
        ])
        .unwrap();
        t
    }

    #[test]
    fn detects_leaks_and_clean_runs() {
        let mut auditor = MemoryAuditor::new();
        auditor.register_table(&table_with_secret());
        assert!(auditor.needle_count() >= 2);

        let clean = auditor.audit([("sp", "nothing to see here 42")]);
        assert!(clean.is_clean());
        assert_eq!(clean.haystacks_scanned, 1);

        let leaky = auditor.audit([
            ("sp-catalog", "... 987654 ..."),
            ("wire", "the operation condor files"),
        ]);
        assert!(!leaky.is_clean());
        assert_eq!(leaky.findings.len(), 2);
        assert_eq!(leaky.findings[0].location, "sp-catalog");
    }

    #[test]
    fn small_values_are_not_needles() {
        let mut auditor = MemoryAuditor::new();
        auditor.register_value(&Value::Int(5));
        auditor.register_value(&Value::Str("ab".into()));
        assert_eq!(auditor.needle_count(), 0);
        auditor.register_value(&Value::Int(123_456));
        // Its decimal text and its quoted wire text.
        assert_eq!(auditor.needle_count(), 2);
    }

    #[test]
    fn numeric_needles_are_found_in_their_wire_form() {
        let mut auditor = MemoryAuditor::new();
        auditor.register_table(&table_with_secret());
        let share = wire::share::to_text(&BigUint::from(987_654u32));
        let quoted = format!("{{\"Encrypted\":\"{share}\"}}");
        let report = auditor.audit([("wire", quoted.as_str())]);
        assert_eq!(report.findings.len(), 1, "{quoted}");
        assert_eq!(report.findings[0].needle, format!("\"{share}\""));
        // Unquoted, inside a longer base64 string, it is not a finding.
        let inside = format!("\"AAAA{share}AAAA\"");
        assert!(auditor.audit([("wire", inside.as_str())]).is_clean());
    }
}
