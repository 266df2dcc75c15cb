//! Write-ahead logs on tmpfs, and the bench-side probe that times the
//! persistence layer from outside in traced runs.

use crate::sys;
use pdmsf_engine::{Engine, LoggedBatch, OpSink};
use pdmsf_persist::{FlushPolicy, LogMedium, OpLogWriter};
use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Counters of the traced WAL path, shared by every shard's sink.
#[derive(Default)]
pub struct WalProbe {
    /// Time inside `OpLogWriter::record`, fsync included.
    pub record_ns: AtomicU64,
    pub updates: AtomicU64,
    pub bytes: AtomicU64,
    pub syncs: AtomicU64,
}

/// A tmpfs log file that counts the bytes and barriers passing through.
struct CountingFile {
    file: File,
    probe: Arc<WalProbe>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.probe.bytes.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl LogMedium for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        self.probe.syncs.fetch_add(1, Relaxed);
        self.file.sync_data()
    }
}

/// Times each record of the wrapped log writer.
struct TimedSink {
    inner: OpLogWriter<CountingFile>,
    probe: Arc<WalProbe>,
}

impl OpSink for TimedSink {
    fn record(&mut self, seq: u64, batch: &LoggedBatch) -> io::Result<()> {
        let t0 = Instant::now();
        let result = self.inner.record(seq, batch);
        self.probe
            .record_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.probe
            .updates
            .fetch_add(batch.updates.len() as u64, Relaxed);
        result
    }
}

/// Start a fresh log segment for `engine` on a new tmpfs file: the header
/// is written and synced, and records continue from the engine's current
/// sequence number (so a checkpoint taken just before covers everything
/// the old segment held). Returns a read handle on the segment. With a
/// probe, the segment's writer is timed and counted.
pub fn start_segment(
    engine: &mut Engine,
    stream_id: u32,
    probe: Option<&Arc<WalProbe>>,
) -> io::Result<File> {
    let file = sys::tmpfs_file(&format!("wal-{stream_id}"))?;
    let reader = file.try_clone()?;
    let policy = FlushPolicy::EveryBatch;
    let file = OpLogWriter::create(file, stream_id, policy)?.into_medium()?;
    let seq = engine.applied_seq();
    let sink: Box<dyn OpSink> = match probe {
        None => Box::new(OpLogWriter::resume(file, policy, seq)),
        Some(probe) => Box::new(TimedSink {
            inner: OpLogWriter::resume(
                CountingFile {
                    file,
                    probe: probe.clone(),
                },
                policy,
                seq,
            ),
            probe: probe.clone(),
        }),
    };
    engine.set_sink(sink);
    Ok(reader)
}
