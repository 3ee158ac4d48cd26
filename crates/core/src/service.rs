//! LRPC — PM2's "light-weight remote procedure call": a service runs in a
//! Marcel thread on the node the request lands on.
//!
//! One table (`ServiceTable`) holds both faces: the paper's byte-level
//! `pm2_rpc_spawn(service_id, byte_args)`, which runs a service and
//! forgets it (its call id is [`crate::proto::NO_REPLY`]), and the
//! request/reply form: a [`Service`] is a type with [`Wire`]-encodable
//! request and response types, registered *by type*, and
//! [`crate::api::pm2_rpc_call`] / [`crate::machine::Machine::rpc_call`]
//! perform a typed round trip built on the same wait-table mechanics as
//! the negotiation gather.  Both are an `RPC_CALL` served by the node's
//! *drainer* (see `handlers::spawn`), so a service may block, allocate
//! iso-address memory, spawn, or even migrate before replying.
//!
//! The data path moves each payload byte once per leg.  The caller encodes
//! the request straight into the pooled `RPC_CALL` payload
//! ([`crate::proto::encode_rpc_call`]); the serving node keeps that message
//! and lends the drainer the request bytes inside it; the erased
//! handler decodes from the borrowed slice and encodes the response
//! straight into the pooled `RPC_RESP` payload; the caller decodes from the
//! reply it was handed.  Drainers are *detached*
//! ([`marcel::thread::flags::DETACHED`]): nobody can join a thread whose
//! tid never leaves the serving node, so it leaves no trace in the
//! machine's registry.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use madeleine::message::PayloadWriter;
use madeleine::Wire;

/// Largest encoded request or response body an LRPC carries, in bytes — a
/// spawn's args included.  An oversized request fails at the caller with
/// [`crate::Pm2Error::PayloadTooLarge`]; an oversized response fails at the
/// serving node and reaches the caller as [`crate::Pm2Error::Rpc`].
pub const MAX_RPC_PAYLOAD: usize = 1 << 20;

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
    /// Handle one request.  Runs in a Marcel thread on the serving node (its
    /// drainer); a panic here becomes an [`crate::Pm2Error::Rpc`] at the
    /// caller.
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

/// Every service, typed and byte-level, erased to a byte handler and keyed
/// by wire id.  Conceptually replicated on every node (SPMD).
#[derive(Default)]
pub(crate) struct ServiceTable {
    table: Mutex<HashMap<u32, (String, ErasedHandler)>>,
}

impl ServiceTable {
    /// Register `svc` under its type's wire id.  Panics on duplicate
    /// registration and on (astronomically unlikely) name-hash collisions,
    /// both of which are configuration bugs.
    pub(crate) fn register<S: Service>(&self, svc: S) {
        self.insert(service_id::<S>(), S::NAME.into(), move |req| {
            svc.handle(req)
        });
    }

    /// Register byte-level service `id`: a service whose request is its
    /// args, a `Vec<u8>`, and which answers nothing.  Panics on duplicate
    /// registration.
    pub(crate) fn register_raw(&self, id: u32, f: impl Fn(Vec<u8>) + Send + Sync + 'static) {
        self.insert(id, format!("#{id}"), f);
    }

    /// File service body `f` under `id`, erased to a byte handler that
    /// names the service `name` in its failures.
    fn insert<Q: Wire, R: Wire>(
        &self,
        id: u32,
        name: String,
        f: impl Fn(Q) -> R + Send + Sync + 'static,
    ) {
        let mut table = self.table.lock().unwrap();
        if let Some((prev, _)) = table.get(&id) {
            if *prev == name {
                panic!("service {name} registered twice");
            }
            panic!("service id collision: {prev} vs {name}");
        }
        let label = name.clone();
        let handler: ErasedHandler = Arc::new(move |req_bytes: &[u8], w: &mut PayloadWriter| {
            let req = Q::decode_vec(req_bytes)
                .ok_or_else(|| format!("request for {label} failed to decode"))?;
            let resp = catch_unwind(AssertUnwindSafe(|| f(req)))
                .map_err(|p| format!("handler for {label} panicked: {}", panic_text(p.as_ref())))?;
            w.reserve(resp.size_hint());
            resp.encode(w);
            Ok(())
        });
        table.insert(id, (name, handler));
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
        let t = ServiceTable::default();
        t.register(Echo);
        let h = t.get(service_id::<Echo>()).unwrap();
        let resp = run(&h, &String::from("hi").encode_vec()).unwrap();
        assert_eq!(String::decode_vec(&resp), Some("hi".into()));
        assert!(t.get(0xDEAD_BEEF).is_none());
    }

    #[test]
    fn bad_request_bytes_become_error() {
        let t = ServiceTable::default();
        t.register(Echo);
        let h = t.get(service_id::<Echo>()).unwrap();
        let err = run(&h, &[0xFF]).unwrap_err();
        assert!(err.contains("failed to decode"), "{err}");
    }

    #[test]
    fn handler_panic_becomes_error() {
        let t = ServiceTable::default();
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
        let t = ServiceTable::default();
        t.register(Echo);
        t.register(Echo);
    }

    #[test]
    fn service_table_lookup() {
        let t = ServiceTable::default();
        t.register_raw(3, |args| assert_eq!(args, b"x"));
        let h = t.get(3).unwrap();
        let answer = run(&h, &b"x".to_vec().encode_vec());
        assert_eq!(
            answer,
            Ok(Vec::new()),
            "a byte-level service answers nothing"
        );
        assert!(t.get(4).is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn service_double_registration_panics() {
        let t = ServiceTable::default();
        t.register_raw(1, |_| {});
        t.register_raw(1, |_| {});
    }
}
