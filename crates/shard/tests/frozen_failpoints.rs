//! Fault injection through the frozen-open path, driven by the same
//! `failpoints` registry the durability layer uses (PR 7): the file read,
//! the mmap, and the post-checksum validation can each be forced to fail,
//! and every failure must surface as a clean error — except the mmap
//! failpoint, which must fall back to the heap buffer and serve
//! bit-identical results.
//!
//! The failpoint registry is process-wide, so every test takes the same
//! lock and clears the registry on entry and exit.

#![cfg(feature = "failpoints")]

use aeetes_core::failpoint::{self, FailAction};
use aeetes_core::{open_frozen, AeetesConfig, ExtractBackend};
use aeetes_rules::RuleSet;
use aeetes_shard::ShardedEngine;
use aeetes_text::{Dictionary, Document, Interner, Tokenizer};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner());
    failpoint::clear();
    guard
}

fn tmp_path(tag: &str) -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("aeetes-frozen-fp-{tag}-{}-{n}.aeet", std::process::id()))
}

fn frozen_file(tag: &str) -> (PathBuf, ShardedEngine, Interner, Tokenizer) {
    let mut interner = Interner::new();
    let tokenizer = Tokenizer::default();
    let mut dict = Dictionary::new();
    dict.push("Purdue University USA", &tokenizer, &mut interner);
    dict.push("UQ AU", &tokenizer, &mut interner);
    let mut rules = RuleSet::new();
    rules.push_str("UQ", "University of Queensland", &tokenizer, &mut interner).unwrap();
    rules.push_str("AU", "Australia", &tokenizer, &mut interner).unwrap();
    let engine = ShardedEngine::build(dict, &rules, &interner, AeetesConfig::default(), 2);
    let path = tmp_path(tag);
    std::fs::write(&path, engine.freeze()).unwrap();
    (path, engine, interner, tokenizer)
}

/// A failed artifact read surfaces as an I/O error, not a panic.
#[test]
fn open_read_failure_is_a_clean_io_error() {
    let _g = serial();
    let (path, ..) = frozen_file("read");
    failpoint::set("frozen.open.read", FailAction::Error, None);
    let err = match open_frozen(&path) {
        Ok(_) => panic!("injected read failure must fail the open"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("frozen.open.read"), "unexpected error: {err}");
    failpoint::clear();
    open_frozen(&path).expect("open succeeds once the failpoint clears");
    std::fs::remove_file(&path).ok();
}

/// A failed mmap degrades to the heap buffer: the open still succeeds,
/// reports `mmapped == false`, and extraction is bit-identical to the
/// mapped engine.
#[test]
fn mmap_failure_falls_back_to_heap_with_identical_results() {
    let _g = serial();
    let (path, engine, _, tokenizer) = frozen_file("mmap");

    failpoint::set("frozen.open.mmap", FailAction::Error, None);
    let heap_parts = open_frozen(&path).expect("heap fallback must succeed");
    assert!(!heap_parts.mmapped, "mmap failpoint must force the heap path");
    failpoint::clear();

    let heap = ShardedEngine::from_frozen(heap_parts, None).expect("adopt heap");
    let source_gen = engine.snapshot();
    let heap_gen = heap.snapshot();
    let text = "purdue university usa and the university of queensland australia";
    let mut src_int = source_gen.interner().clone();
    let src_doc = Document::parse(text, &tokenizer, &mut src_int);
    let mut heap_int = heap_gen.interner().clone();
    let heap_doc = Document::parse(text, &tokenizer, &mut heap_int);
    for tau in [0.6, 0.8, 1.0] {
        assert_eq!(heap_gen.extract(&heap_doc, tau), source_gen.extract(&src_doc, tau), "tau={tau}");
    }
    std::fs::remove_file(&path).ok();
}

/// An injected validation failure (after the checksum passes) is reported
/// as corruption, and clears cleanly.
#[test]
fn validate_failure_reports_corruption() {
    let _g = serial();
    let (path, ..) = frozen_file("validate");
    failpoint::set("frozen.open.validate", FailAction::Error, None);
    let err = match open_frozen(&path) {
        Ok(_) => panic!("injected validation failure must fail the open"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("frozen.open.validate"), "unexpected error: {err}");
    failpoint::clear();
    open_frozen(&path).expect("open succeeds once the failpoint clears");
    std::fs::remove_file(&path).ok();
}

/// The `@K`-style one-shot spec works on frozen sites too: the first open
/// fails, the retry succeeds — the shape a transient read error takes in
/// production.
#[test]
fn one_shot_read_failure_then_retry_succeeds() {
    let _g = serial();
    let (path, ..) = frozen_file("oneshot");
    failpoint::configure("frozen.open.read=error@1").expect("valid spec");
    assert!(open_frozen(&path).is_err(), "first open must hit the failpoint");
    open_frozen(&path).expect("second open must succeed after the one-shot fires");
    failpoint::clear();
    std::fs::remove_file(&path).ok();
}
