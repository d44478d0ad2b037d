//! TCP front-end: one [`WireServer`] accepts connections, each served
//! by a thread speaking the framed protocol of [`crate::proto`] against
//! the shared in-process [`Server`].
//!
//! The wire layer owns the pieces the protocol's `Create` needs that
//! the core scheduler deliberately does not know about: the seeded
//! workload registry (names → [`workloads::Workload::build_seeded`]),
//! the server-wide shared [`CircuitCache`] that `share_cache: true`
//! sessions attach, and the single [`CadService`] pool every session's
//! background compiles run on. Sharing the CAD pool is free — results
//! are consumed only at modeled-time boundaries, so pool contention
//! trades wall-clock, never timeline. Sharing the circuit cache is the
//! cross-tenant optimization: tenants running the same kernel (same
//! program image, different seeded data) hit each other's compiled
//! circuits and pay only reconfiguration cycles.
//!
//! Sessions belong to the connection that created them: when it ends
//! (the client hangs up, or the socket fails), every session it created
//! and has not yet reported or removed is removed from the server.

use std::collections::HashSet;
use std::io::BufWriter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use mb_isa::MbFeatures;
use warp_core::{CadService, CircuitCache};
use warp_online::{OnlineConfig, OnlineSession, ThresholdPolicy, TopKPolicy};

use crate::proto::{read_frame, write_frame, Request, Response};
use crate::server::{ServeConfig, Server, SessionId};
use crate::ServeError;

/// A TCP-fronted warp-simulation server.
pub struct WireServer {
    core: Arc<Server>,
    cache: Arc<CircuitCache>,
    cad: Arc<CadService>,
    listener: TcpListener,
}

impl WireServer {
    /// Binds a listener and starts the scheduler's worker pool.
    /// `cache` is the server-wide shared circuit cache (pass a
    /// [`CircuitCache::bounded`] one to cap resident compiled kernels).
    ///
    /// # Errors
    ///
    /// Propagates the socket bind failure.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        cache: Arc<CircuitCache>,
    ) -> std::io::Result<Self> {
        Ok(WireServer {
            core: Arc::new(Server::start(config)),
            cache,
            cad: Arc::new(CadService::from_env()),
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared in-process scheduler, for mixing wire and in-process
    /// clients against one fleet.
    #[must_use]
    pub fn core(&self) -> &Arc<Server> {
        &self.core
    }

    /// Runs the accept loop forever on a background thread, one
    /// handler thread per connection.
    #[must_use]
    pub fn spawn(self) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("warp-serve-accept".into())
            .spawn(move || {
                let WireServer { core, cache, cad, listener } = self;
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    let core = Arc::clone(&core);
                    let cache = Arc::clone(&cache);
                    let cad = Arc::clone(&cad);
                    let _ = std::thread::Builder::new().name("warp-serve-conn".into()).spawn(
                        move || {
                            let _ = serve_connection(&core, &cache, &cad, stream);
                        },
                    );
                }
            })
            .expect("spawn warp-serve accept thread")
    }

    /// Handles one request against this server's fleet — the same
    /// dispatch the connection threads run, callable in-process.
    #[must_use]
    pub fn handle(&self, req: Request) -> Response {
        dispatch(&self.core, &self.cache, &self.cad, req)
    }
}

/// Serves one connection until EOF or a socket failure, then removes
/// the sessions it left open.
fn serve_connection(
    core: &Server,
    cache: &Arc<CircuitCache>,
    cad: &Arc<CadService>,
    stream: TcpStream,
) -> std::io::Result<()> {
    let mut open = HashSet::new();
    let served = serve_frames(core, cache, cad, stream, &mut open);
    for id in open {
        core.remove(id);
    }
    served
}

/// The request loop of [`serve_connection`]. `open` tracks the sessions
/// this connection created and has not yet reported or removed.
fn serve_frames(
    core: &Server,
    cache: &Arc<CircuitCache>,
    cad: &Arc<CadService>,
    stream: TcpStream,
    open: &mut HashSet<SessionId>,
) -> std::io::Result<()> {
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    while let Some(payload) = read_frame(&mut reader)? {
        let response = match Request::decode(&payload) {
            Ok(req) => {
                if let Request::Report(id) | Request::Remove(id) = req {
                    open.remove(&id);
                }
                let response = dispatch(core, cache, cad, req);
                if let Response::Created(id) = response {
                    open.insert(id);
                }
                response
            }
            Err(e) => Response::Error(e.to_string()),
        };
        write_frame(&mut writer, &response.encode())?;
    }
    Ok(())
}

/// Builds a session from a `Create` request against the seeded
/// workload registry.
#[allow(clippy::too_many_arguments)] // mirrors the wire Create frame
fn create_session(
    cache: &Arc<CircuitCache>,
    cad: &Arc<CadService>,
    workload: &str,
    seed: u64,
    k: u32,
    min_count: u64,
    slice_cycles: u64,
    repeats: u32,
    share_cache: bool,
) -> Result<OnlineSession, ServeError> {
    let spec = workloads::by_name(workload)
        .ok_or_else(|| ServeError::Protocol(format!("unknown workload {workload:?}")))?;
    let built = Arc::new(spec.build_seeded(MbFeatures::paper_default(), seed));
    let mut config = OnlineConfig::default();
    if slice_cycles > 0 {
        config.slice_cycles = slice_cycles;
    }
    config.repeats = repeats.max(1);
    let mut session = OnlineSession::new(built, config).with_service(Arc::clone(cad));
    session = if k > 0 {
        session.with_policy(TopKPolicy { k: k as usize, min_count })
    } else {
        session.with_policy(ThresholdPolicy { min_count })
    };
    if share_cache {
        session = session.with_cache(Arc::clone(cache));
    }
    Ok(session)
}

fn dispatch(
    core: &Server,
    cache: &Arc<CircuitCache>,
    cad: &Arc<CadService>,
    req: Request,
) -> Response {
    let outcome = match req {
        Request::Create { workload, seed, k, min_count, slice_cycles, repeats, share_cache } => {
            return match create_session(
                cache,
                cad,
                &workload,
                seed,
                k,
                min_count,
                slice_cycles,
                repeats,
                share_cache,
            ) {
                Ok(session) => Response::Created(core.create(session)),
                Err(e) => Response::Error(e.to_string()),
            };
        }
        Request::Run(id) => core.run(id).map(|()| Response::Ok),
        Request::Step { id, slices } => core.step(id, slices).map(|()| Response::Ok),
        Request::Patch { id, addr, words } => core.patch(id, addr, &words).map(|()| Response::Ok),
        Request::Query(id) => core.query(id).map(Response::Status),
        Request::Report(id) => core.wait(id).map(Response::Report),
        Request::Fleet => Ok(Response::Fleet(core.fleet())),
        Request::Remove(id) => {
            core.remove(id);
            Ok(Response::Ok)
        }
    };
    outcome.unwrap_or_else(|e| Response::Error(e.to_string()))
}

/// A blocking wire client: typed calls over one framed TCP connection.
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a [`WireServer`].
    ///
    /// # Errors
    ///
    /// Propagates the socket connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = stream.try_clone()?;
        Ok(Client { reader, writer: BufWriter::new(stream) })
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on socket failure (including the server
    /// hanging up mid-exchange) or [`ServeError::Protocol`] on an
    /// undecodable reply.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        Response::decode(&payload)
    }

    /// `call` that expects a specific success shape and converts
    /// `Error` replies into [`ServeError::Protocol`].
    fn expect<T>(
        &mut self,
        req: &Request,
        pick: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, ServeError> {
        match self.call(req)? {
            Response::Error(msg) => Err(ServeError::Protocol(msg)),
            resp => pick(resp).ok_or_else(|| ServeError::Protocol("unexpected response".into())),
        }
    }

    /// Creates a session from the server's workload registry.
    ///
    /// # Errors
    ///
    /// Socket/protocol failures or a server-side rejection.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        &mut self,
        workload: &str,
        seed: u64,
        k: u32,
        min_count: u64,
        slice_cycles: u64,
        repeats: u32,
        share_cache: bool,
    ) -> Result<u64, ServeError> {
        self.expect(
            &Request::Create {
                workload: workload.into(),
                seed,
                k,
                min_count,
                slice_cycles,
                repeats,
                share_cache,
            },
            |r| match r {
                Response::Created(id) => Some(id),
                _ => None,
            },
        )
    }

    /// Serves the session to completion (asynchronously).
    ///
    /// # Errors
    ///
    /// Socket/protocol failures or a server-side rejection.
    pub fn run(&mut self, id: u64) -> Result<(), ServeError> {
        self.expect(&Request::Run(id), |r| matches!(r, Response::Ok).then_some(()))
    }

    /// Grants the session an exact number of scheduler slices.
    ///
    /// # Errors
    ///
    /// Socket/protocol failures or a server-side rejection.
    pub fn step(&mut self, id: u64, slices: u64) -> Result<(), ServeError> {
        self.expect(&Request::Step { id, slices }, |r| matches!(r, Response::Ok).then_some(()))
    }

    /// Hot-patches the session's instruction memory.
    ///
    /// # Errors
    ///
    /// Socket/protocol failures or a server-side rejection.
    pub fn patch(&mut self, id: u64, addr: u32, words: Vec<u32>) -> Result<(), ServeError> {
        self.expect(&Request::Patch { id, addr, words }, |r| {
            matches!(r, Response::Ok).then_some(())
        })
    }

    /// Reads the session's progress snapshot.
    ///
    /// # Errors
    ///
    /// Socket/protocol failures or a server-side rejection.
    pub fn query(&mut self, id: u64) -> Result<crate::SessionSnapshot, ServeError> {
        self.expect(&Request::Query(id), |r| match r {
            Response::Status(s) => Some(s),
            _ => None,
        })
    }

    /// Blocks until the session completes and returns its full report.
    ///
    /// # Errors
    ///
    /// Socket/protocol failures or the session's own failure.
    pub fn report(&mut self, id: u64) -> Result<warp_online::OnlineReport, ServeError> {
        self.expect(&Request::Report(id), |r| match r {
            Response::Report(rep) => Some(rep),
            _ => None,
        })
    }

    /// Reads fleet-wide counters.
    ///
    /// # Errors
    ///
    /// Socket/protocol failures.
    pub fn fleet(&mut self) -> Result<crate::FleetStats, ServeError> {
        self.expect(&Request::Fleet, |r| match r {
            Response::Fleet(f) => Some(f),
            _ => None,
        })
    }
}
