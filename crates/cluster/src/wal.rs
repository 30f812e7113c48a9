//! The delta-log steps that `aeetes serve --wal` and `aeetes fleet --wal`
//! share: committing one activated delta and decoding a recovered record.
//! Each side keeps its own log handle and its own poison flag.

use aeetes_core::{Wal, WalError, WalRecord};
use aeetes_obs::WalMetrics;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// Sets the `records` and `bytes` gauges from the log's committed size.
pub fn observe_size(wal: &Wal, metrics: &WalMetrics) {
    metrics.records.set(wal.record_count().min(i64::MAX as u64) as i64);
    metrics.bytes.set(wal.len_bytes().min(i64::MAX as u64) as i64);
}

/// Commits one activated delta: append, fsync, then the `wal_*` metrics.
/// Only after this returns `Ok` may the delta be acknowledged. On error
/// the caller latches its poison flag: the delta is applied in memory, but
/// a restart may come back without it, so no further delta is accepted.
pub fn commit(wal: &mut Wal, metrics: &WalMetrics, generation: u64, payload: &[u8]) -> Result<(), String> {
    let result = (|| {
        wal.append(generation, payload)?;
        let sync_started = Instant::now();
        wal.sync()?;
        metrics
            .fsync_nanos
            .observe_nanos(u64::try_from(sync_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        Ok::<(), WalError>(())
    })();
    match result {
        Ok(()) => {
            metrics.appends.inc(1);
            metrics.append_bytes.inc(payload.len() as u64);
            observe_size(wal, metrics);
            Ok(())
        }
        Err(e) => {
            metrics.append_failures.inc(1);
            Err(format!("wal append for generation {generation} failed: {e}"))
        }
    }
}

/// Decodes a recovered record's payload: UTF-8, then JSON. Errors name the
/// log file and the record's generation.
pub fn decode_record(path: &Path, record: &WalRecord) -> Result<Value, String> {
    let context = || format!("{}: generation {} record", path.display(), record.generation);
    let text = std::str::from_utf8(&record.payload).map_err(|e| format!("{}: payload is not UTF-8: {e}", context()))?;
    serde_json::from_str(text).map_err(|e| format!("{}: payload is not JSON: {e}", context()))
}
