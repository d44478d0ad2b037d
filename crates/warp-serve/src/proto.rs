//! The length-prefixed binary wire protocol.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by the payload; the payload's first byte is the opcode.
//! All integers are little-endian; strings are a `u32` length plus
//! UTF-8 bytes; flags and optional values' presence bytes are `0` or
//! `1`, and any other byte fails the decode, so every payload that
//! decodes re-encodes to the same bytes. The format is hand-rolled (the
//! workspace is offline — no serde) and versioned by [`PROTO_VERSION`],
//! which the `Create` opcode carries so a server can reject a stale
//! client with a readable error instead of a decode failure.
//!
//! The interesting payload is [`Response::Report`]: the *complete*
//! [`OnlineReport`] — every warp event with its DPM breakdown, circuit
//! model, and hardware activity, plus the profiler counters — crosses
//! the wire losslessly. The round-trip test in `tests/wire.rs` decodes
//! a served report and asserts it equal to a standalone
//! [`OnlineSession::run`](warp_online::OnlineSession::run) of the same
//! workload: determinism holds end-to-end *through the socket*, not
//! just in process.

use warp_core::dpm::DpmReport;
use warp_online::{OnlineReport, WarpEvent};
use warp_profiler::ProfilerStats;
use warp_wcla::{ExecModel, WclaStats};

use crate::error::ServeError;
use crate::server::{FleetStats, SessionSnapshot};

/// Wire protocol version carried in `Create` requests.
pub const PROTO_VERSION: u32 = 1;

/// Client-to-server commands.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    /// Instantiate a session from the seeded workload registry.
    Create {
        /// Registry workload name (e.g. `"brev"`).
        workload: String,
        /// Input-data seed ([`workloads::Workload::build_seeded`]).
        seed: u64,
        /// Warp-event cap: `0` uses the plain threshold policy,
        /// otherwise a top-k policy with this k.
        k: u32,
        /// Minimum profiler heat before a region is warped.
        min_count: u64,
        /// Scheduler slice length in simulated cycles (`0` = default).
        slice_cycles: u64,
        /// End-to-end executions folded into one timeline (`0` = 1).
        repeats: u32,
        /// Whether to attach the server's shared circuit cache.
        share_cache: bool,
    },
    /// Grant unbounded slices: serve to completion.
    Run(u64),
    /// Grant exactly this many scheduler slices.
    Step {
        /// Session id.
        id: u64,
        /// Slices to grant.
        slices: u64,
    },
    /// Hot-patch instruction memory. The words persist across the
    /// session's later repeats.
    Patch {
        /// Session id.
        id: u64,
        /// Word-aligned target address.
        addr: u32,
        /// Instruction words to write.
        words: Vec<u32>,
    },
    /// Read the session's progress snapshot.
    Query(u64),
    /// Block until completion and take the full report.
    Report(u64),
    /// Read fleet-wide counters.
    Fleet,
    /// Discard a session.
    Remove(u64),
}

/// Server-to-client replies.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Session created.
    Created(u64),
    /// Command applied.
    Ok,
    /// Progress snapshot.
    Status(SessionSnapshot),
    /// The completed session's full report.
    Report(OnlineReport),
    /// Fleet-wide counters.
    Fleet(FleetStats),
    /// Command failed.
    Error(String),
}

mod op {
    pub const CREATE: u8 = 0x01;
    pub const RUN: u8 = 0x02;
    pub const STEP: u8 = 0x03;
    pub const PATCH: u8 = 0x04;
    pub const QUERY: u8 = 0x05;
    pub const REPORT: u8 = 0x06;
    pub const FLEET: u8 = 0x07;
    pub const REMOVE: u8 = 0x08;

    pub const R_CREATED: u8 = 0x81;
    pub const R_OK: u8 = 0x82;
    pub const R_STATUS: u8 = 0x83;
    pub const R_REPORT: u8 = 0x84;
    pub const R_FLEET: u8 = 0x85;
    pub const R_ERROR: u8 = 0xFF;
}

// ---- primitive writers/readers ---------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string fits a frame"));
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServeError::Protocol("truncated frame".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    fn bool(&mut self) -> Result<bool, ServeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ServeError::Protocol(format!("flag byte {b:#04x} is neither 0 nor 1"))),
        }
    }

    fn str(&mut self) -> Result<String, ServeError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| ServeError::Protocol("invalid utf-8 string".into()))
    }

    fn finish(self) -> Result<(), ServeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---- report codec -----------------------------------------------------

fn put_dpm(buf: &mut Vec<u8>, d: &DpmReport) {
    for v in [
        d.decompile_cycles,
        d.synth_cycles,
        d.map_cycles,
        d.place_cycles,
        d.route_cycles,
        d.bitstream_cycles,
        d.peak_memory_bytes,
    ] {
        put_u64(buf, v);
    }
}

fn get_dpm(r: &mut Reader<'_>) -> Result<DpmReport, ServeError> {
    Ok(DpmReport {
        decompile_cycles: r.u64()?,
        synth_cycles: r.u64()?,
        map_cycles: r.u64()?,
        place_cycles: r.u64()?,
        route_cycles: r.u64()?,
        bitstream_cycles: r.u64()?,
        peak_memory_bytes: r.u64()?,
    })
}

fn put_model(buf: &mut Vec<u8>, m: &ExecModel) {
    for v in [
        m.fabric_clock_hz,
        m.mem_ops,
        m.compute_cycles,
        m.mac_cycles,
        m.startup_cycles,
        m.cycles_per_iteration,
    ] {
        put_u64(buf, v);
    }
}

fn get_model(r: &mut Reader<'_>) -> Result<ExecModel, ServeError> {
    Ok(ExecModel {
        fabric_clock_hz: r.u64()?,
        mem_ops: r.u64()?,
        compute_cycles: r.u64()?,
        mac_cycles: r.u64()?,
        startup_cycles: r.u64()?,
        cycles_per_iteration: r.u64()?,
    })
}

fn put_hw(buf: &mut Vec<u8>, h: &WclaStats) {
    for v in [h.invocations, h.iterations, h.fabric_cycles, h.mb_stall_cycles, h.loads, h.stores] {
        put_u64(buf, v);
    }
}

fn get_hw(r: &mut Reader<'_>) -> Result<WclaStats, ServeError> {
    Ok(WclaStats {
        invocations: r.u64()?,
        iterations: r.u64()?,
        fabric_cycles: r.u64()?,
        mb_stall_cycles: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
    })
}

fn put_event(buf: &mut Vec<u8>, e: &WarpEvent) {
    put_u32(buf, e.head);
    put_u32(buf, e.tail);
    put_u64(buf, e.count_at_detection);
    put_u64(buf, e.fingerprint);
    put_u64(buf, e.detected_cycle);
    put_u64(buf, e.cad_cycles);
    put_u64(buf, e.patched_cycle);
    put_u64(buf, e.patched_insns);
    put_bool(buf, e.cache_hit);
    put_u64(buf, e.reused_clusters);
    put_u64(buf, e.total_clusters);
    put_u64(buf, e.rerouted_nets as u64);
    put_u64(buf, e.total_nets as u64);
    put_u64(buf, e.cad_overlap_cycles);
    match e.evicted {
        None => put_bool(buf, false),
        Some((h, t)) => {
            put_bool(buf, true);
            put_u32(buf, h);
            put_u32(buf, t);
        }
    }
    put_dpm(buf, &e.dpm);
    put_model(buf, &e.model);
    put_hw(buf, &e.hw);
}

fn get_event(r: &mut Reader<'_>) -> Result<WarpEvent, ServeError> {
    let usize_of =
        |v: u64| usize::try_from(v).map_err(|_| ServeError::Protocol("count exceeds usize".into()));
    Ok(WarpEvent {
        head: r.u32()?,
        tail: r.u32()?,
        count_at_detection: r.u64()?,
        fingerprint: r.u64()?,
        detected_cycle: r.u64()?,
        cad_cycles: r.u64()?,
        patched_cycle: r.u64()?,
        patched_insns: r.u64()?,
        cache_hit: r.bool()?,
        reused_clusters: r.u64()?,
        total_clusters: r.u64()?,
        rerouted_nets: usize_of(r.u64()?)?,
        total_nets: usize_of(r.u64()?)?,
        cad_overlap_cycles: r.u64()?,
        evicted: if r.bool()? { Some((r.u32()?, r.u32()?)) } else { None },
        dpm: get_dpm(r)?,
        model: get_model(r)?,
        hw: get_hw(r)?,
    })
}

fn put_profiler(buf: &mut Vec<u8>, p: &ProfilerStats) {
    for v in [p.events, p.hits, p.evictions, p.agings, p.decays, p.decay_evictions, p.instructions]
    {
        put_u64(buf, v);
    }
}

fn get_profiler(r: &mut Reader<'_>) -> Result<ProfilerStats, ServeError> {
    Ok(ProfilerStats {
        events: r.u64()?,
        hits: r.u64()?,
        evictions: r.u64()?,
        agings: r.u64()?,
        decays: r.u64()?,
        decay_evictions: r.u64()?,
        instructions: r.u64()?,
    })
}

fn put_report(buf: &mut Vec<u8>, rep: &OnlineReport) {
    put_str(buf, &rep.name);
    put_u32(buf, rep.repeats);
    put_u64(buf, rep.slices);
    put_u64(buf, rep.cycles);
    put_u64(buf, rep.instructions);
    put_u32(buf, rep.exit_code);
    put_u32(buf, u32::try_from(rep.events.len()).expect("event count fits u32"));
    for e in &rep.events {
        put_event(buf, e);
    }
    put_profiler(buf, &rep.profiler);
}

fn get_report(r: &mut Reader<'_>) -> Result<OnlineReport, ServeError> {
    let name = r.str()?;
    let repeats = r.u32()?;
    let slices = r.u64()?;
    let cycles = r.u64()?;
    let instructions = r.u64()?;
    let exit_code = r.u32()?;
    let n = r.u32()? as usize;
    let mut events = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        events.push(get_event(r)?);
    }
    let profiler = get_profiler(r)?;
    Ok(OnlineReport { name, repeats, slices, cycles, instructions, exit_code, events, profiler })
}

// ---- message codec ----------------------------------------------------

impl Request {
    /// Encodes the request as one frame payload (no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Create {
                workload,
                seed,
                k,
                min_count,
                slice_cycles,
                repeats,
                share_cache,
            } => {
                put_u8(&mut buf, op::CREATE);
                put_u32(&mut buf, PROTO_VERSION);
                put_str(&mut buf, workload);
                put_u64(&mut buf, *seed);
                put_u32(&mut buf, *k);
                put_u64(&mut buf, *min_count);
                put_u64(&mut buf, *slice_cycles);
                put_u32(&mut buf, *repeats);
                put_bool(&mut buf, *share_cache);
            }
            Request::Run(id) => {
                put_u8(&mut buf, op::RUN);
                put_u64(&mut buf, *id);
            }
            Request::Step { id, slices } => {
                put_u8(&mut buf, op::STEP);
                put_u64(&mut buf, *id);
                put_u64(&mut buf, *slices);
            }
            Request::Patch { id, addr, words } => {
                put_u8(&mut buf, op::PATCH);
                put_u64(&mut buf, *id);
                put_u32(&mut buf, *addr);
                put_u32(&mut buf, u32::try_from(words.len()).expect("patch fits a frame"));
                for w in words {
                    put_u32(&mut buf, *w);
                }
            }
            Request::Query(id) => {
                put_u8(&mut buf, op::QUERY);
                put_u64(&mut buf, *id);
            }
            Request::Report(id) => {
                put_u8(&mut buf, op::REPORT);
                put_u64(&mut buf, *id);
            }
            Request::Fleet => put_u8(&mut buf, op::FLEET),
            Request::Remove(id) => {
                put_u8(&mut buf, op::REMOVE);
                put_u64(&mut buf, *id);
            }
        }
        buf
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on a truncated frame, unknown opcode,
    /// version mismatch, flag byte other than 0 or 1, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            op::CREATE => {
                let version = r.u32()?;
                if version != PROTO_VERSION {
                    return Err(ServeError::Protocol(format!(
                        "protocol version {version} (server speaks {PROTO_VERSION})"
                    )));
                }
                Request::Create {
                    workload: r.str()?,
                    seed: r.u64()?,
                    k: r.u32()?,
                    min_count: r.u64()?,
                    slice_cycles: r.u64()?,
                    repeats: r.u32()?,
                    share_cache: r.bool()?,
                }
            }
            op::RUN => Request::Run(r.u64()?),
            op::STEP => Request::Step { id: r.u64()?, slices: r.u64()? },
            op::PATCH => {
                let id = r.u64()?;
                let addr = r.u32()?;
                let n = r.u32()? as usize;
                let mut words = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    words.push(r.u32()?);
                }
                Request::Patch { id, addr, words }
            }
            op::QUERY => Request::Query(r.u64()?),
            op::REPORT => Request::Report(r.u64()?),
            op::FLEET => Request::Fleet,
            op::REMOVE => Request::Remove(r.u64()?),
            other => {
                return Err(ServeError::Protocol(format!("unknown request opcode {other:#04x}")))
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response as one frame payload (no length prefix).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Created(id) => {
                put_u8(&mut buf, op::R_CREATED);
                put_u64(&mut buf, *id);
            }
            Response::Ok => put_u8(&mut buf, op::R_OK),
            Response::Status(s) => {
                put_u8(&mut buf, op::R_STATUS);
                put_u64(&mut buf, s.cycles);
                put_u64(&mut buf, s.instructions);
                put_u64(&mut buf, s.slices);
                put_u64(&mut buf, s.warps as u64);
                match s.time_to_first_warp {
                    None => put_bool(&mut buf, false),
                    Some(t) => {
                        put_bool(&mut buf, true);
                        put_u64(&mut buf, t);
                    }
                }
                put_bool(&mut buf, s.done);
            }
            Response::Report(rep) => {
                put_u8(&mut buf, op::R_REPORT);
                put_report(&mut buf, rep);
            }
            Response::Fleet(f) => {
                put_u8(&mut buf, op::R_FLEET);
                for v in [
                    f.created,
                    f.finished,
                    f.failed,
                    f.quanta,
                    f.cycles,
                    f.instructions,
                    f.warps,
                    f.ttfw_sum,
                    f.ttfw_sessions,
                ] {
                    put_u64(&mut buf, v);
                }
            }
            Response::Error(msg) => {
                put_u8(&mut buf, op::R_ERROR);
                put_str(&mut buf, msg);
            }
        }
        buf
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on a truncated frame, unknown opcode,
    /// flag byte other than 0 or 1, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            op::R_CREATED => Response::Created(r.u64()?),
            op::R_OK => Response::Ok,
            op::R_STATUS => Response::Status(SessionSnapshot {
                cycles: r.u64()?,
                instructions: r.u64()?,
                slices: r.u64()?,
                warps: usize::try_from(r.u64()?)
                    .map_err(|_| ServeError::Protocol("warp count exceeds usize".into()))?,
                time_to_first_warp: if r.bool()? { Some(r.u64()?) } else { None },
                done: r.bool()?,
            }),
            op::R_REPORT => Response::Report(get_report(&mut r)?),
            op::R_FLEET => Response::Fleet(FleetStats {
                created: r.u64()?,
                finished: r.u64()?,
                failed: r.u64()?,
                quanta: r.u64()?,
                cycles: r.u64()?,
                instructions: r.u64()?,
                warps: r.u64()?,
                ttfw_sum: r.u64()?,
                ttfw_sessions: r.u64()?,
            }),
            op::R_ERROR => Response::Error(r.str()?),
            other => {
                return Err(ServeError::Protocol(format!("unknown response opcode {other:#04x}")))
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Writes one frame (length prefix + payload) to a byte sink.
///
/// # Errors
///
/// Propagates the sink's I/O error.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).expect("frame fits u32");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload from a byte source. Returns `None` on a
/// clean EOF at a frame boundary (client hung up).
///
/// # Errors
///
/// Propagates I/O errors; a frame longer than [`MAX_FRAME`] is a
/// protocol violation reported as `InvalidData`.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Upper bound on one frame's payload: large enough for a report with
/// thousands of warp events, small enough that a corrupt length prefix
/// cannot make the server allocate gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) {
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(&decoded, req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Create {
            workload: "brev".into(),
            seed: 42,
            k: 1,
            min_count: 256,
            slice_cycles: 0,
            repeats: 2,
            share_cache: true,
        });
        round_trip_request(&Request::Run(7));
        round_trip_request(&Request::Step { id: 7, slices: 1000 });
        round_trip_request(&Request::Patch { id: 7, addr: 0x44, words: vec![1, 2, 3] });
        round_trip_request(&Request::Query(7));
        round_trip_request(&Request::Report(7));
        round_trip_request(&Request::Fleet);
        round_trip_request(&Request::Remove(7));
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Created(9),
            Response::Ok,
            Response::Status(SessionSnapshot {
                cycles: 1,
                instructions: 2,
                slices: 3,
                warps: 4,
                time_to_first_warp: Some(5),
                done: false,
            }),
            Response::Fleet(FleetStats { created: 11, finished: 7, ..FleetStats::default() }),
            Response::Error("boom".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// A report with one warp event exercising every field, the
    /// eviction option included.
    fn sample_report() -> OnlineReport {
        OnlineReport {
            name: "phased".into(),
            repeats: 2,
            slices: 100,
            cycles: 2_000_000,
            instructions: 800_000,
            exit_code: 0,
            events: vec![WarpEvent {
                head: 0x120,
                tail: 0x164,
                count_at_detection: 4096,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                detected_cycle: 40_000,
                cad_cycles: 120_000,
                patched_cycle: 180_000,
                patched_insns: 70_000,
                cache_hit: true,
                reused_clusters: 30,
                total_clusters: 30,
                rerouted_nets: 0,
                total_nets: 44,
                cad_overlap_cycles: 140_000,
                evicted: Some((0x80, 0xC4)),
                dpm: DpmReport {
                    decompile_cycles: 1,
                    synth_cycles: 2,
                    map_cycles: 3,
                    place_cycles: 4,
                    route_cycles: 5,
                    bitstream_cycles: 6,
                    peak_memory_bytes: 7,
                },
                model: ExecModel {
                    fabric_clock_hz: 42_000_000,
                    mem_ops: 2,
                    compute_cycles: 3,
                    mac_cycles: 0,
                    startup_cycles: 2,
                    cycles_per_iteration: 5,
                },
                hw: WclaStats {
                    invocations: 1,
                    iterations: 9000,
                    fabric_cycles: 45_000,
                    mb_stall_cycles: 90_000,
                    loads: 9000,
                    stores: 9000,
                },
            }],
            profiler: ProfilerStats {
                events: 10,
                hits: 9,
                evictions: 1,
                agings: 0,
                decays: 4,
                decay_evictions: 2,
                instructions: 800_000,
            },
        }
    }

    #[test]
    fn report_round_trips_bit_identically() {
        let report = sample_report();
        let decoded = match Response::decode(&Response::Report(report.clone()).encode()).unwrap() {
            Response::Report(r) => r,
            other => panic!("wrong variant: {other:?}"),
        };
        assert_eq!(decoded, report);
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0x55]).is_err(), "unknown opcode");
        // Truncated Run.
        assert!(Request::decode(&[op::RUN, 1, 2]).is_err());
        // Trailing garbage.
        let mut buf = Request::Run(1).encode();
        buf.push(0);
        assert!(Request::decode(&buf).is_err());
        // Version skew, either way.
        for version in [0, PROTO_VERSION + 1, 0xEE, u32::MAX] {
            let mut bytes = create(false).encode();
            bytes[1..5].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(Request::decode(&bytes), Err(ServeError::Protocol(_))), "{version}");
        }
        // A flag byte other than 0 or 1.
        let mut bytes = create(true).encode();
        *bytes.last_mut().unwrap() = 0x02;
        assert!(matches!(Request::decode(&bytes), Err(ServeError::Protocol(_))));
        // A length prefix past the frame cap.
        let prefix = u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes();
        let err = read_frame(&mut std::io::Cursor::new(prefix)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &Request::Fleet.encode()).unwrap();
        write_frame(&mut stream, &Request::Run(3).encode()).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(
            Request::decode(&read_frame(&mut cursor).unwrap().unwrap()).unwrap(),
            Request::Fleet
        );
        assert_eq!(
            Request::decode(&read_frame(&mut cursor).unwrap().unwrap()).unwrap(),
            Request::Run(3)
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    /// SplitMix64: the seeded stream the decoder fuzz draws from.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn create(share_cache: bool) -> Request {
        Request::Create {
            workload: "crc32".into(),
            seed: 7,
            k: 2,
            min_count: 256,
            slice_cycles: 10_000,
            repeats: 4,
            share_cache,
        }
    }

    /// One encoded payload of every request and response variant, with
    /// each flag and option both ways.
    fn corpus() -> Vec<Vec<u8>> {
        let mut unevicted = sample_report();
        unevicted.events[0].evicted = None;
        unevicted.events[0].cache_hit = false;
        let status = |time_to_first_warp, done| {
            Response::Status(SessionSnapshot {
                cycles: 1,
                instructions: 2,
                slices: 3,
                warps: 4,
                time_to_first_warp,
                done,
            })
        };
        let requests = [
            create(true),
            create(false),
            Request::Run(7),
            Request::Step { id: 7, slices: 3 },
            Request::Patch { id: 7, addr: 0x44, words: vec![1, 2, 3] },
            Request::Patch { id: 7, addr: 0, words: Vec::new() },
            Request::Query(7),
            Request::Report(7),
            Request::Fleet,
            Request::Remove(7),
        ];
        let responses = [
            Response::Created(9),
            Response::Ok,
            status(Some(5), true),
            status(None, false),
            Response::Report(sample_report()),
            Response::Report(unevicted),
            Response::Fleet(FleetStats { created: 11, finished: 7, ..FleetStats::default() }),
            Response::Error("boom".into()),
        ];
        requests.iter().map(Request::encode).chain(responses.iter().map(Response::encode)).collect()
    }

    /// The decoder contract on arbitrary bytes: no panic (a panic fails
    /// the test), and whatever decodes re-encodes to exactly `payload`.
    fn assert_canonical(payload: &[u8]) {
        if let Ok(req) = Request::decode(payload) {
            assert_eq!(req.encode(), payload, "{req:?} decoded from non-canonical bytes");
        }
        if let Ok(resp) = Response::decode(payload) {
            assert_eq!(resp.encode(), payload, "{resp:?} decoded from non-canonical bytes");
        }
    }

    #[test]
    fn decoding_is_total_and_canonical() {
        let mut rng = Rng(0x5EED_0D0C);
        for payload in corpus() {
            for end in 0..=payload.len() {
                assert_canonical(&payload[..end]);
            }
            for i in 0..payload.len() {
                for byte in [payload[i] ^ 0xFF, 2, rng.next() as u8] {
                    let mut flipped = payload.clone();
                    flipped[i] = byte;
                    assert_canonical(&flipped);
                }
            }
            // Inflate every 4-byte window, which covers each string
            // length and element count wherever it sits.
            for i in 0..payload.len().saturating_sub(3) {
                for len in [u32::MAX, MAX_FRAME as u32 + 1, rng.next() as u32] {
                    let mut inflated = payload.clone();
                    inflated[i..i + 4].copy_from_slice(&len.to_le_bytes());
                    assert_canonical(&inflated);
                }
            }
            let mut trailing = payload.clone();
            trailing.push(rng.next() as u8);
            assert!(Request::decode(&trailing).is_err() && Response::decode(&trailing).is_err());
            for _ in 0..64 {
                let mut mutated = payload.clone();
                for _ in 0..=rng.below(4) {
                    let i = rng.below(mutated.len());
                    mutated[i] = rng.next() as u8;
                }
                if rng.below(2) == 0 {
                    mutated.truncate(rng.below(mutated.len() + 1));
                }
                assert_canonical(&mutated);
            }
        }
    }
}
