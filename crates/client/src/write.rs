//! The write side of the thick client: offset-tracked, retrying,
//! schema-evolution-aware appends (§4.2, §5.4).

use std::collections::BTreeMap;
use std::sync::Arc;

use vortex_common::error::{VortexError, VortexResult};
use vortex_common::ids::{StreamId, TableId};
use vortex_common::obs::{self, Counter, Histogram};
use vortex_common::row::{RowSet, Value};
use vortex_common::schema::Schema;
use vortex_common::transport::AdaptiveTransport;
use vortex_common::truetime::{Timestamp, TrueTime};
use vortex_sms::api::SmsHandle;
use vortex_sms::meta::StreamType;
use vortex_sms::sms::StreamHandle;

/// Options controlling a [`StreamWriter`].
#[derive(Debug, Clone, Copy)]
pub struct WriterOptions {
    /// UNBUFFERED, BUFFERED, or PENDING (§4.2.1).
    pub stream_type: StreamType,
    /// When true, every append carries its expected `row_offset`, giving
    /// exactly-once semantics under retries (§4.2.2). When false, appends
    /// land at the current end of stream (at-least-once).
    pub exactly_once: bool,
    /// When true (and the transport is bi-di), appends do not wait for
    /// the previous append's completion — they queue on the log file's
    /// timeline (§4.2.2's pipelining).
    pub pipelined: bool,
    /// One-way acknowledgement delay (client↔server network), in virtual
    /// microseconds. A serial (non-pipelined) writer cannot send the next
    /// append before the previous ack *arrives*; a pipelined writer hides
    /// this entirely. Zero by default (in-process tests).
    pub ack_delay_us: u64,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            stream_type: StreamType::Unbuffered,
            exactly_once: true,
            pipelined: false,
            ack_delay_us: 0,
        }
    }
}

/// Result of a successful append.
#[derive(Debug, Clone, Copy)]
pub struct AppendResult {
    /// Stream-level row offset of the first appended row.
    pub row_offset: u64,
    /// Rows appended.
    pub row_count: u64,
    /// Virtual completion time of the append (both replicas durable).
    pub completion: Timestamp,
    /// End-to-end virtual latency in microseconds (send → durable),
    /// including queueing behind earlier pipelined appends.
    pub latency_us: u64,
}

/// Registry handles of the client's append leg, interned when the writer
/// is created: an append never names a metric.
struct ClientMetrics {
    calls: Arc<Counter>,
    rows: Arc<Counter>,
    retries: Arc<Counter>,
    dedup: Arc<Counter>,
    throttled: Arc<Counter>,
    span: Arc<Histogram>,
}

impl ClientMetrics {
    fn intern() -> Self {
        let m = obs::global();
        ClientMetrics {
            calls: m.counter("append.client.calls"),
            rows: m.counter("append.client.rows"),
            retries: m.counter("append.client.retries"),
            dedup: m.counter("append.client.dedup"),
            throttled: m.counter("append.client.throttled"),
            span: m.span("append.client"),
        }
    }
}

/// Holds the transport slot `on_request` took for one append and gives
/// it back when dropped — on every exit of the retry loop, `?` and panic
/// included.
struct InFlight<'a>(&'a mut StreamWriter);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.transport.on_response();
    }
}

/// A writer bound to one Vortex stream.
pub struct StreamWriter {
    sms: SmsHandle,
    tt: TrueTime,
    table: TableId,
    handle: StreamHandle,
    schema: Schema,
    opts: WriterOptions,
    next_offset: u64,
    /// Exactly-once dedup ledger: stream offset → row count of every
    /// batch this writer has submitted whose outcome the server may
    /// remember (§4.2.2's ambiguous ack). Entries wholly below the
    /// committed watermark (`next_offset` after an acknowledgement) are
    /// evicted, so the ledger holds only the unresolved window — it
    /// never grows with stream length.
    submitted: BTreeMap<u64, u64>,
    transport: AdaptiveTransport,
    last_completion: Timestamp,
    m: ClientMetrics,
}

/// Streamlet rotations one append or flush may try before it fails.
const MAX_ROTATE_RETRIES: usize = 4;

impl StreamWriter {
    /// Creates a stream of the requested type on `table` and returns a
    /// writer for it.
    pub fn create(
        sms: SmsHandle,
        tt: TrueTime,
        table: TableId,
        opts: WriterOptions,
    ) -> VortexResult<Self> {
        // `CreateStream` opens the first fragment on the data plane, so
        // it is exposed to the same transient storage faults as appends;
        // retry a few times (a failed attempt leaves at most an orphan
        // stream for the groomer).
        let mut attempts = 0usize;
        let handle = loop {
            match sms.create_stream(table, opts.stream_type) {
                Ok(h) => break h,
                Err(e) if e.is_retryable() && attempts < 4 => attempts += 1,
                Err(e) => return Err(e),
            }
        };
        Ok(Self {
            schema: handle.schema.clone(),
            next_offset: handle.streamlet.first_stream_row,
            submitted: BTreeMap::new(), // lint:allow(L010, writer-construction ledger init; hot edge is a name-resolved fs `create`)
            sms,
            tt,
            table,
            handle,
            opts,
            transport: AdaptiveTransport::with_defaults(),
            last_completion: Timestamp::MIN,
            m: ClientMetrics::intern(),
        })
    }

    /// The stream this writer appends to.
    pub fn stream_id(&self) -> StreamId {
        self.handle.stream.stream
    }

    /// The table this writer appends to.
    pub fn table_id(&self) -> TableId {
        self.table
    }

    /// The stream-level row offset the next append will use.
    pub fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Unresolved entries in the exactly-once dedup ledger (bounded by
    /// eviction below the committed watermark; exposed for tests and
    /// leak probes).
    pub fn dedup_ledger_len(&self) -> usize {
        self.submitted.len()
    }

    /// Drops dedup-ledger entries wholly below the committed watermark:
    /// future retries always carry offsets at or above it, so those
    /// entries can never be queried again.
    fn evict_acked(&mut self) {
        let w = self.next_offset;
        while let Some((&off, &rows)) = self.submitted.first_key_value() {
            if off + rows <= w {
                self.submitted.remove(&off);
            } else {
                break;
            }
        }
    }

    /// The schema version this writer currently serializes against.
    pub fn schema_version(&self) -> u32 {
        self.schema.version
    }

    /// Appends a batch of rows, retrying transparently per §5.4:
    /// schema-version mismatches refetch the schema; retryable failures
    /// obtain a new streamlet from the SMS and retry there.
    pub fn append(&mut self, rows: RowSet) -> VortexResult<AppendResult> {
        let now = self.tt.record_timestamp();
        self.append_at(rows, now)
    }

    /// [`StreamWriter::append`] with an explicit virtual send time (used
    /// by latency benchmarks driving virtual clocks).
    // lint:hotpath(append) — client submit leg of the §4.2.2 commit-to-ack path
    pub fn append_at(&mut self, mut rows: RowSet, now: Timestamp) -> VortexResult<AppendResult> {
        if rows.is_empty() {
            return Err(VortexError::InvalidArgument("empty append".into()));
        }
        // The additive-evolution upgrade path (§5.4.1): a row built
        // before the table grew columns is padded with NULLs, in place,
        // up to the writer's schema; any other row is sent as it came.
        let arity = self.schema.fields.len();
        for short in rows.rows.iter_mut().filter(|r| r.values.len() < arity) {
            short.values.resize(arity, Value::Null);
        }
        // Serial mode waits for the previous append; pipelined mode (on a
        // bi-di connection) sends immediately and queues at the log file.
        let start = if self.opts.pipelined && self.transport.supports_pipelining() {
            now
        } else {
            // Serial mode waits for the previous append's acknowledgement
            // to arrive over the network before sending the next request.
            now.max(self.last_completion.plus_micros(self.opts.ack_delay_us))
        };
        self.transport.on_request(now);
        // The batch is handed to the server shard by reference; every
        // retry below shares it.
        let rows = Arc::new(rows); // lint:allow(L010, one per append: replaces the shard's deep copy of the rows)
        let slot = InFlight(self);
        slot.0.submit(&rows, now, start)
    }

    /// The retry loop of one append, from first send to its outcome.
    fn submit(
        &mut self,
        rows: &Arc<RowSet>,
        now: Timestamp,
        start: Timestamp,
    ) -> VortexResult<AppendResult> {
        let row_count = rows.len() as u64;
        let mut schema_refetches = 0usize;
        let mut rotations = 0usize;
        let mut throttle_retries = 0usize;
        loop {
            let expected = self.opts.exactly_once.then_some(self.next_offset);
            if self.opts.exactly_once {
                // Remember the batch before the RPC: if the ack is lost,
                // a later OffsetMismatch must be checkable against what
                // was actually submitted at this offset.
                // lint:allow(L010, bounded dedup ledger — evicted below the committed watermark)
                self.submitted.insert(self.next_offset, row_count);
            }
            let outcome = self.handle.server.append_shared(
                self.handle.streamlet.streamlet,
                Arc::clone(rows),
                self.schema.version,
                expected,
                start,
            );
            match outcome {
                Ok(ack) => {
                    self.next_offset = ack.first_stream_row + ack.row_count;
                    self.evict_acked();
                    self.last_completion = self.last_completion.max(ack.completion);
                    // Client leg of the append span: send → durable ack,
                    // in virtual time (§4.2.2 ack path).
                    self.m.calls.inc();
                    self.m.rows.add(ack.row_count);
                    self.m.retries.add((rotations + schema_refetches) as u64);
                    obs::Span::begin(&self.m.span, now).end(ack.completion);
                    return Ok(AppendResult {
                        row_offset: ack.first_stream_row,
                        row_count: ack.row_count,
                        completion: ack.completion,
                        latency_us: ack.completion.micros().saturating_sub(now.micros()),
                    });
                }
                Err(VortexError::OffsetMismatch {
                    provided, expected, ..
                }) if self.opts.exactly_once
                    && expected >= provided + row_count
                    && self.submitted.get(&provided).copied() == Some(row_count) =>
                {
                    // An earlier attempt executed but its acknowledgement
                    // was lost (§4.2.2's ambiguous ack) and the retry came
                    // back to the same streamlet: the server's
                    // authoritative length shows exactly this batch
                    // landed.
                    return Ok(self.duplicate(provided..expected, row_count, now));
                }
                Err(VortexError::SchemaVersionMismatch { .. }) if schema_refetches < 2 => {
                    // §5.4.1: fetch the updated schema from the SMS, then
                    // retry the append under the new version.
                    schema_refetches += 1;
                    self.schema = self.sms.get_table(self.table)?.schema;
                }
                Err(VortexError::ResourceExhausted { .. }) if throttle_retries < 3 => {
                    // Admission shed the append before anything executed:
                    // the streamlet is fine and the offset unchanged, so
                    // rotating (which would hammer the already-overloaded
                    // SMS with metadata traffic) is exactly wrong. Retry
                    // in place; the channel honors the server's
                    // retry_after hint between attempts.
                    throttle_retries += 1;
                    self.m.throttled.inc();
                }
                Err(e) if e.is_retryable() && rotations < MAX_ROTATE_RETRIES => {
                    // §5.4: finalize the current streamlet, obtain a new
                    // one from the SMS, and retry the write there. The
                    // rotation itself can hit the same transient storage
                    // faults; treat that as one consumed retry and try
                    // again.
                    rotations += 1;
                    match self
                        .sms
                        .rotate_streamlet(self.table, self.handle.stream.stream)
                    {
                        Ok(h) => self.handle = h,
                        Err(re) if re.is_retryable() => continue,
                        Err(re) => return Err(re),
                    }
                    // The reconciled stream length is authoritative; it
                    // may differ from our optimistic counter if unacked
                    // data survived (at-least-once) — exactly-once mode
                    // detects that via the offset check below.
                    let reconciled = self.handle.streamlet.first_stream_row;
                    if self.opts.exactly_once && reconciled > self.next_offset {
                        // Our "failed" rows actually committed.
                        let landed = self.next_offset..reconciled;
                        return Ok(self.duplicate(landed, row_count, now));
                    }
                    self.next_offset = self.next_offset.max(reconciled);
                    self.evict_acked();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The batch being retried turned out to have landed already, at
    /// `landed.start`, in a stream now committed through `landed.end`: a
    /// duplicate, reported as a success at its original offset.
    fn duplicate(
        &mut self,
        landed: std::ops::Range<u64>,
        row_count: u64,
        now: Timestamp,
    ) -> AppendResult {
        self.next_offset = landed.end;
        self.evict_acked();
        self.m.calls.inc();
        self.m.dedup.inc();
        AppendResult {
            row_offset: landed.start,
            row_count,
            completion: self.last_completion.max(now),
            latency_us: 0,
        }
    }

    /// `FlushStream` (§4.2.3): makes rows `[0, row_offset)` visible on a
    /// BUFFERED stream. Durable (a flush record lands in the log) and
    /// recorded in the SMS.
    ///
    /// Like [`StreamWriter::append`](mod@crate::write), transient storage
    /// faults rotate the streamlet and retry: the in-log flush record is
    /// a recovery hint, while the SMS watermark written afterwards is
    /// what gates visibility, so a record landing on the successor
    /// streamlet (or covering zero of its rows) is harmless.
    pub fn flush(&mut self, row_offset: u64) -> VortexResult<()> {
        let mut rotations = 0usize;
        loop {
            // Persist the flush record in the current streamlet's log.
            let streamlet_rel = row_offset.saturating_sub(self.handle.streamlet.first_stream_row);
            match self
                .handle
                .server
                .flush(self.handle.streamlet.streamlet, streamlet_rel)
            {
                Ok(()) => break,
                Err(e) if e.is_retryable() && rotations < MAX_ROTATE_RETRIES => {
                    rotations += 1;
                    match self
                        .sms
                        .rotate_streamlet(self.table, self.handle.stream.stream)
                    {
                        Ok(h) => {
                            self.handle = h;
                            let reconciled = self.handle.streamlet.first_stream_row;
                            self.next_offset = self.next_offset.max(reconciled);
                        }
                        Err(re) if re.is_retryable() => continue,
                        Err(re) => return Err(re),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Record the stream-level watermark in the SMS.
        self.sms
            .flush_stream(self.table, self.handle.stream.stream, row_offset)
    }

    /// `FinalizeStream` (§4.2.5): no further appends.
    pub fn finalize(self) -> VortexResult<()> {
        self.sms
            .finalize_stream(self.table, self.handle.stream.stream)
            .map(|_| ())
    }
}

impl std::fmt::Debug for StreamWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamWriter")
            .field("table", &self.table)
            .field("stream", &self.handle.stream.stream)
            .field("next_offset", &self.next_offset)
            .finish_non_exhaustive()
    }
}
