//! The prepared-suite table: concurrent first requests share one entry,
//! and every entry equals a fresh parse-and-abstract of its suite.
//!
//! This binary holds a single test so that its first requests really are
//! the first in the process.

use std::sync::Barrier;
use std::thread;

use abv_core::{abstract_property, reuse_at_cycle_accurate};
use designs::{colorconv, AbsLevel, DesignKind, PropertyClass, SuiteEntry};
use psl::ClockedProperty;

const LEVELS: [AbsLevel; 4] = [
    AbsLevel::Rtl,
    AbsLevel::TlmCa,
    AbsLevel::TlmAt,
    AbsLevel::TlmAtBulk,
];

fn keys() -> Vec<(DesignKind, AbsLevel, bool)> {
    let mut keys = Vec::new();
    for design in DesignKind::ALL {
        for level in LEVELS {
            for passing in [false, true] {
                keys.push((design, level, passing));
            }
        }
    }
    keys
}

/// Parses and abstracts the suite from scratch, by the rules
/// `designs::suite_at` documents.
fn fresh(design: DesignKind, level: AbsLevel, passing: bool) -> Vec<(String, ClockedProperty)> {
    let suite = design.suite();
    let cfg = design.config();
    match level {
        AbsLevel::Rtl => suite.iter().map(SuiteEntry::named).collect(),
        AbsLevel::TlmCa => suite
            .iter()
            .map(|e| (e.name.to_owned(), reuse_at_cycle_accurate(&e.rtl).unwrap()))
            .collect(),
        AbsLevel::TlmAt => suite
            .iter()
            .filter(|e| !passing || e.class == PropertyClass::AtCompatible)
            .filter_map(|e| {
                let q = abstract_property(&e.rtl, &cfg).unwrap().into_property()?;
                Some((e.name.to_owned(), q))
            })
            .collect(),
        AbsLevel::TlmAtBulk => colorconv::bulk_surviving_properties(),
    }
}

#[test]
fn concurrent_first_requests_share_one_entry_equal_to_a_fresh_preparation() {
    const THREADS: usize = 8;
    let keys = keys();
    let barrier = Barrier::new(THREADS);
    let seen: Vec<Vec<usize>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    keys.iter()
                        .map(|&(d, l, p)| designs::suite_at(d, l, p).as_ptr() as usize)
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no thread panics"))
            .collect()
    });
    for other in &seen[1..] {
        assert_eq!(other, &seen[0], "every thread borrows the same entries");
    }

    for (design, level, passing) in keys {
        let label = format!("{} {} passing={passing}", design.label(), level.label());
        let entry = designs::suite_at(design, level, passing);
        assert_eq!(entry, fresh(design, level, passing).as_slice(), "{label}");
        assert!(!entry.is_empty(), "{label}");
        let owned = if passing {
            designs::passing_properties_at(design, level)
        } else {
            designs::properties_at(design, level)
        };
        assert_eq!(owned.as_slice(), entry, "{label}");
        assert_eq!(
            designs::suite_at(design, level, passing).as_ptr(),
            entry.as_ptr()
        );
    }
}
