//! Typed request/reply LRPC — the v1 face of PM2's "light-weight remote
//! procedure call".
//!
//! The paper's LRPC is spawn-only: `pm2_rpc_spawn(service_id, byte_args)`
//! starts a handler thread on a remote node and forgets it.  That layer
//! stays (see [`crate::registry::ServiceTable`]); this module adds the
//! request/reply form applications actually want: a [`Service`] is a type
//! with [`Wire`]-encodable request and response types, registered *by
//! type*, and [`crate::api::pm2_rpc_call`] /
//! [`crate::machine::Machine::rpc_call`] perform a typed round trip built
//! on the same wait-table mechanics as the negotiation gather.
//!
//! Handlers still run as freshly spawned Marcel threads on the serving
//! node — PM2's LRPC model — so a handler may itself allocate iso-address
//! memory, spawn, or even migrate before replying.
//!
//! The data path moves each payload byte once per leg.  The caller encodes
//! the typed request straight into the pooled `RPC_CALL` payload
//! ([`crate::proto::encode_rpc_call`]); the serving node keeps that message
//! and lends the handler thread the request bytes inside it; the erased
//! handler decodes from the borrowed slice and encodes the response
//! straight into the pooled `RPC_RESP` payload; the caller decodes from the
//! reply it was handed.  Handler threads are *detached*
//! ([`marcel::thread::flags::DETACHED`]): nobody can join a thread whose
//! tid never leaves the serving node, so a clean exit leaves no completion
//! record behind.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use madeleine::message::PayloadWriter;
use madeleine::Wire;

/// A typed LRPC service.
///
/// `NAME` is the stable wire identity: both sides hash it to the u32
/// service id, so registration and call sites agree by construction.
///
/// ```no_run
/// use pm2::{Service, Machine};
///
/// struct Square;
/// impl Service for Square {
///     const NAME: &'static str = "demo.square";
///     type Req = u64;
///     type Resp = u64;
///     fn handle(&self, req: u64) -> u64 { req * req }
/// }
///
/// let mut machine = Machine::builder(2).launch().unwrap();
/// machine.register::<Square>(Square);
/// assert_eq!(machine.rpc_call::<Square>(1, 12).unwrap(), 144);
/// ```
pub trait Service: Send + Sync + 'static {
    /// Stable service name; hashed into the wire id.
    const NAME: &'static str;
    /// Request type shipped to the serving node.
    type Req: Wire;
    /// Response type shipped back.
    type Resp: Wire;
    /// Handle one request.  Runs in a spawned Marcel thread on the serving
    /// node; a panic here becomes an [`crate::Pm2Error::Rpc`] at the caller.
    fn handle(&self, req: Self::Req) -> Self::Resp;
}

/// The wire id of service `S` (FNV-1a of [`Service::NAME`]).
pub fn service_id<S: Service>() -> u32 {
    name_id(S::NAME)
}

/// FNV-1a over a service name.
pub(crate) fn name_id(name: &str) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Byte-level handler stored per service id: decodes the request from the
/// borrowed bytes, runs the service, and appends the encoded response to
/// the writer.  On `Err` — a message describing the remote failure (decode
/// error or handler panic) — nothing has been written.
pub(crate) type ErasedHandler = Arc<
    dyn Fn(&[u8], &mut PayloadWriter) -> std::result::Result<(), String> + Send + Sync + 'static,
>;

/// Typed services, erased to byte handlers and keyed by wire id.
/// Conceptually replicated on every node (SPMD), like [`ServiceTable`]
/// (`crate::registry::ServiceTable`).
#[derive(Default)]
pub(crate) struct TypedServiceTable {
    table: Mutex<HashMap<u32, (&'static str, ErasedHandler)>>,
}

impl TypedServiceTable {
    pub(crate) fn new_shared() -> Arc<Self> {
        Arc::new(TypedServiceTable::default())
    }

    /// Register `svc` under its type's wire id.  Panics on duplicate
    /// registration and on (astronomically unlikely) name-hash collisions,
    /// both of which are configuration bugs.
    pub(crate) fn register<S: Service>(&self, svc: S) {
        let id = service_id::<S>();
        let svc = Arc::new(svc);
        let handler: ErasedHandler = Arc::new(move |req_bytes: &[u8], w: &mut PayloadWriter| {
            let req = S::Req::decode_vec(req_bytes)
                .ok_or_else(|| format!("request for {} failed to decode", S::NAME))?;
            let resp = catch_unwind(AssertUnwindSafe(|| svc.handle(req))).map_err(|p| {
                format!(
                    "handler for {} panicked: {}",
                    S::NAME,
                    panic_text(p.as_ref())
                )
            })?;
            w.reserve(resp.size_hint());
            resp.encode(w);
            Ok(())
        });
        let mut table = self.table.lock().unwrap();
        if let Some((prev_name, _)) = table.get(&id) {
            if *prev_name == S::NAME {
                panic!("service {} registered twice", S::NAME);
            }
            panic!("service id collision: {} vs {}", prev_name, S::NAME);
        }
        table.insert(id, (S::NAME, handler));
    }

    /// Look up the handler for wire id `id`.
    pub(crate) fn get(&self, id: u32) -> Option<ErasedHandler> {
        self.table
            .lock()
            .unwrap()
            .get(&id)
            .map(|(_, h)| Arc::clone(h))
    }
}

/// Best-effort text of a panic payload (`&str` and `String` payloads).
pub(crate) fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Service for Echo {
        const NAME: &'static str = "test.echo";
        type Req = String;
        type Resp = String;
        fn handle(&self, req: String) -> String {
            req
        }
    }

    struct Bomb;
    impl Service for Bomb {
        const NAME: &'static str = "test.bomb";
        type Req = ();
        type Resp = ();
        fn handle(&self, _req: ()) {
            panic!("boom");
        }
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        assert_eq!(service_id::<Echo>(), name_id("test.echo"));
        assert_ne!(service_id::<Echo>(), service_id::<Bomb>());
    }

    /// Run an erased handler on `req`, into a writer that already holds a
    /// reply header's worth of bytes.
    fn run(h: &ErasedHandler, req: &[u8]) -> std::result::Result<Vec<u8>, String> {
        let mut w = PayloadWriter::with_capacity(0);
        w.bytes(b"hdr");
        let outcome = h(req, &mut w);
        let body = w.finish_vec().split_off(3);
        assert!(
            outcome.is_ok() || body.is_empty(),
            "a failed handler writes nothing"
        );
        outcome.map(|()| body)
    }

    #[test]
    fn erased_roundtrip() {
        let t = TypedServiceTable::default();
        t.register(Echo);
        let h = t.get(service_id::<Echo>()).unwrap();
        let resp = run(&h, &String::from("hi").encode_vec()).unwrap();
        assert_eq!(String::decode_vec(&resp), Some("hi".into()));
        assert!(t.get(0xDEAD_BEEF).is_none());
    }

    #[test]
    fn bad_request_bytes_become_error() {
        let t = TypedServiceTable::default();
        t.register(Echo);
        let h = t.get(service_id::<Echo>()).unwrap();
        let err = run(&h, &[0xFF]).unwrap_err();
        assert!(err.contains("failed to decode"), "{err}");
    }

    #[test]
    fn handler_panic_becomes_error() {
        let t = TypedServiceTable::default();
        t.register(Bomb);
        let h = t.get(service_id::<Bomb>()).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = run(&h, &().encode_vec()).unwrap_err();
        std::panic::set_hook(prev);
        assert!(err.contains("boom"), "{err}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let t = TypedServiceTable::default();
        t.register(Echo);
        t.register(Echo);
    }
}
