//! The properties the keyed operators rely on, checked against the key path
//! they share with the catalog's indexes ([`sdb_storage::keys`]): the typed
//! key equality is exactly the rendered-string equality joins and grouping
//! used before it, the hash respects it, and the chained index finds every
//! entry it holds.

mod tests {
    use num_bigint::BigUint;
    use proptest::prelude::*;
    use sdb_crypto::sies::SiesCiphertext;
    use sdb_crypto::EncryptedRowId;
    use sdb_storage::keys::{hash_key, key_eq, keys_eq, partition_of, BatchKeys, ChainIndex};
    use sdb_storage::{Column, Value};

    /// The string rendering this module replaced, kept as the reference the
    /// typed relation is checked against: two components were the same key
    /// exactly when they rendered the same.
    fn join_key_component(v: &Value) -> String {
        match v {
            Value::Null => "\u{0}NULL".to_string(),
            Value::Int(_) | Value::Decimal { .. } | Value::Date(_) | Value::Bool(_) => v
                .as_scaled_i128(4)
                .map(|x| format!("n{x}"))
                .unwrap_or_else(|_| v.render()),
            Value::Str(s) => format!("s{s}"),
            Value::Tag(t) => format!("t{t}"),
            Value::Encrypted(e) => format!("e{e}"),
            Value::EncryptedRowId(_) => format!("r{:?}", v),
        }
    }

    /// A value of any variant from two random words, drawn from small pools
    /// so that pairs collide often, plus the extremes.
    fn value_from(kind: u64, r: u64) -> Value {
        let units = match r % 7 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -((r >> 8) as i64 % 3),
            _ => (r >> 8) as i64 % 3,
        };
        match kind % 10 {
            0 => Value::Null,
            1 => Value::Int(units),
            // Scales 0–6: below, at and above the scale-4 cut.
            2 | 3 => Value::Decimal {
                units: match r % 5 {
                    0 => units,
                    _ => {
                        ((r >> 8) as i64 % 3) * 10i64.pow((r >> 16) as u32 % 7)
                            + (r >> 24) as i64 % 3
                    }
                },
                scale: ((r >> 16) % 7) as u8,
            },
            4 => Value::Date((r >> 8) as i32 % 3),
            5 => Value::Bool(r & 1 == 1),
            6 => {
                Value::Str(["", "a", "ab", "b", "bc", "c", "é", "n10000"][(r % 8) as usize].into())
            }
            7 => Value::Tag(r % 3),
            // One, two and three limbs, equal low limbs included.
            8 => Value::Encrypted(
                (BigUint::from(r % 2) << (64 * ((r >> 4) % 3) as u32))
                    + BigUint::from((r >> 8) % 2),
            ),
            _ => Value::EncryptedRowId(EncryptedRowId(SiesCiphertext {
                nonce: r % 2,
                body: vec![(r >> 4) as u8 % 2; (r >> 8) as usize % 3],
                tag: (r >> 12) % 2,
            })),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The typed relation is the rendered one, and the hash respects it.
        #[test]
        fn key_eq_is_the_rendered_equality_and_hashes_agree(
            words in proptest::collection::vec(any::<u64>(), 4)
        ) {
            let (a, b) = (value_from(words[0], words[1]), value_from(words[2], words[3]));
            let rendered = join_key_component(&a) == join_key_component(&b);
            prop_assert_eq!(key_eq(&a, &b), rendered, "{:?} vs {:?}", a, b);
            prop_assert!(key_eq(&a, &a));
            if rendered {
                prop_assert_eq!(hash_key([&a]), hash_key([&b]), "{:?} vs {:?}", a, b);
            }
        }

        /// The same over two-component keys, where the rendering joined the
        /// components with a separator; columns and rows hash alike.
        #[test]
        fn multi_component_keys_match_the_rendered_equality(
            words in proptest::collection::vec(any::<u64>(), 8)
        ) {
            let a = [value_from(words[0], words[1]), value_from(words[2], words[3])];
            let b = [value_from(words[4], words[5]), value_from(words[6], words[7])];
            let render = |key: &[Value; 2]| {
                key.iter().map(join_key_component).collect::<Vec<_>>().join("\u{1f}")
            };
            let rendered = render(&a) == render(&b);
            prop_assert_eq!(keys_eq(&a, &b), rendered, "{:?} vs {:?}", a, b);
            if rendered {
                prop_assert_eq!(hash_key(&a), hash_key(&b));
            }
            let columns: Vec<Column> = (0..2)
                .map(|c| {
                    let cells = vec![a[c].clone(), b[c].clone()];
                    Column::from_values_unchecked(sdb_storage::DataType::Int, cells)
                })
                .collect();
            let keys = BatchKeys::new(columns, 2);
            prop_assert_eq!(&keys.hashes, &vec![hash_key(&a), hash_key(&b)]);
            prop_assert_eq!(keys.nulls[0], a.iter().any(Value::is_null));
            prop_assert!(keys_eq(keys.row(1), &b));
        }
    }

    #[test]
    fn the_scale_four_rule_and_the_class_walls() {
        let dec = |units, scale| Value::Decimal { units, scale };
        for (a, b) in [
            (Value::Int(1), dec(10, 1)),
            (Value::Int(1), dec(100, 2)),
            (Value::Int(1), Value::Bool(true)),
            (Value::Int(1), Value::Date(1)),
            (dec(100_001, 5), dec(100_002, 5)),
            (Value::Int(i64::MIN), dec(i64::MIN, 0)),
        ] {
            assert!(key_eq(&a, &b), "{a:?} = {b:?}");
            assert_eq!(hash_key([&a]), hash_key([&b]), "{a:?} / {b:?}");
        }
        for (a, b) in [
            (Value::Int(1), dec(10_001, 4)),
            (Value::Int(10_000), Value::Str("n10000".into())),
            (Value::Tag(7), Value::Int(7)),
            (Value::Tag(7), Value::Encrypted(BigUint::from(7u8))),
            (Value::Null, Value::Int(0)),
            (Value::Null, Value::Str(String::new())),
        ] {
            assert!(!key_eq(&a, &b), "{a:?} ≠ {b:?}");
        }
    }

    #[test]
    fn component_boundaries_do_not_alias() {
        let s = |text: &str| Value::Str(text.into());
        let (left, right) = ([s("ab"), s("c")], [s("a"), s("bc")]);
        assert!(!keys_eq(&left, &right));
        assert_ne!(hash_key(&left), hash_key(&right));
        assert_ne!(hash_key(&[s(""), s("a")]), hash_key(&[s("a"), s("")]));
    }

    #[test]
    fn built_chains_ascend_and_skip_flagged_entries() {
        // Five entries under two hashes that share a bucket, one skipped.
        let hashes = vec![8, 16, 8, 8, 16];
        let index = ChainIndex::build(hashes, &[false, false, true, false, false]);
        assert_eq!(index.matches(8).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(index.matches(16).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(index.matches(24).count(), 0);
        assert_eq!(ChainIndex::build(Vec::new(), &[]).matches(8).count(), 0);
    }

    #[test]
    fn inserted_entries_survive_growth() {
        let mut index = ChainIndex::default();
        assert_eq!(index.matches(1).count(), 0);
        let hash = |entry: usize| hash_key([&Value::Int(entry as i64)]);
        for entry in 0..100 {
            assert_eq!(index.insert(hash(entry)), entry);
        }
        assert_eq!(index.entries(), 100);
        for entry in 0..100 {
            let found: Vec<usize> = index.matches(hash(entry)).collect();
            assert_eq!(found, vec![entry]);
        }
    }

    #[test]
    fn partitions_are_stable_per_level_and_reshuffle_across_levels() {
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| hash_key([&Value::Int(i as i64)]))
            .collect();
        let at =
            |level| -> Vec<usize> { hashes.iter().map(|&h| partition_of(h, level, 8)).collect() };
        assert_eq!(at(0), at(0));
        assert_ne!(at(0), at(1));
        assert!(at(0).iter().all(|&p| p < 8));
        // Keys that shared partition 0 at level 0 spread out at level 1.
        let collided: Vec<u64> = hashes
            .iter()
            .copied()
            .filter(|&h| partition_of(h, 0, 8) == 0)
            .collect();
        let spread: std::collections::BTreeSet<usize> =
            collided.iter().map(|&h| partition_of(h, 1, 8)).collect();
        assert!(spread.len() > 1, "{collided:?}");
    }
}
