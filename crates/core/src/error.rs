//! Runtime errors.

use std::fmt;

/// Errors surfaced by the PM2 runtime API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pm2Error {
    /// The block layer failed (bad free, corruption, …).
    Alloc(isomalloc::AllocError),
    /// The slot layer failed.
    Slots(isoaddr::IsoAddrError),
    /// The global negotiation could not find the requested contiguous run
    /// anywhere in the system.
    OutOfSlots { requested: usize },
    /// A thread operation referenced an unknown or non-resident thread.
    NoSuchThread(u64),
    /// The target thread is not migratable (flagged, blocked, or running).
    NotMigratable(u64),
    /// Destination node id out of range.
    NoSuchNode(usize),
    /// The fabric failed.
    Net(String),
    /// Spawning failed.
    Spawn(String),
    /// A joined thread panicked; carries the panic message when one was
    /// captured.
    Panicked(String),
    /// A typed LRPC named a service id no node has registered.
    NoSuchService(u32),
    /// An LRPC payload (a spawn's args too) exceeded the ceiling.
    PayloadTooLarge {
        /// Encoded payload size.
        len: usize,
        /// The ceiling, [`crate::service::MAX_RPC_PAYLOAD`].
        max: usize,
    },
    /// The remote side of a typed LRPC failed (handler panic, decode
    /// failure, oversized response).
    Rpc(String),
    /// A wire payload failed to decode as the expected type.
    Decode(&'static str),
    /// The node owning the awaited thread (or serving the call) died and no
    /// checkpoint covered it.  Joiners and RPC callers get this instead of
    /// a hang; carries the dead node's id.
    NodeFailed(usize),
    /// The spill log (checkpoint persistence) failed at the I/O layer.
    Spill(String),
    /// A request/reply exchange (an LRPC, a slot trade, a probe, a
    /// checkpoint, a reclaim, a §4.4 round) got no reply within its one
    /// `reply_deadline`: the peer is slow, or a partition has stalled the
    /// link.  Distinct from [`Pm2Error::NodeFailed`], which a death
    /// raises at once: the fabric loses nothing, so nothing is re-sent, and
    /// a reply that lands late is dropped.
    Timeout {
        /// The exchange that gave up.
        op: &'static str,
    },
}

impl From<isomalloc::AllocError> for Pm2Error {
    fn from(e: isomalloc::AllocError) -> Self {
        Pm2Error::Alloc(e)
    }
}

impl From<isoaddr::IsoAddrError> for Pm2Error {
    fn from(e: isoaddr::IsoAddrError) -> Self {
        Pm2Error::Slots(e)
    }
}

impl From<madeleine::NetError> for Pm2Error {
    fn from(e: madeleine::NetError) -> Self {
        match e {
            madeleine::NetError::NodeDead(n) => Pm2Error::NodeFailed(n),
            other => Pm2Error::Net(other.to_string()),
        }
    }
}

impl fmt::Display for Pm2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pm2Error::Alloc(e) => write!(f, "allocation error: {e}"),
            Pm2Error::Slots(e) => write!(f, "slot layer error: {e}"),
            Pm2Error::OutOfSlots { requested } => {
                write!(f, "no {requested} contiguous slots exist system-wide")
            }
            Pm2Error::NoSuchThread(t) => write!(f, "no such thread: {t:#x}"),
            Pm2Error::NotMigratable(t) => write!(f, "thread {t:#x} cannot be migrated now"),
            Pm2Error::NoSuchNode(n) => write!(f, "no such node: {n}"),
            Pm2Error::Net(e) => write!(f, "network error: {e}"),
            Pm2Error::Spawn(e) => write!(f, "spawn error: {e}"),
            Pm2Error::Panicked(msg) => write!(f, "thread panicked: {msg}"),
            Pm2Error::NoSuchService(id) => write!(f, "no service registered under id {id:#x}"),
            Pm2Error::PayloadTooLarge { len, max } => {
                write!(
                    f,
                    "rpc payload of {len} bytes exceeds the {max}-byte ceiling"
                )
            }
            Pm2Error::Rpc(e) => write!(f, "rpc failed remotely: {e}"),
            Pm2Error::Decode(what) => write!(f, "malformed wire payload: {what}"),
            Pm2Error::NodeFailed(n) => write!(f, "node {n} failed"),
            Pm2Error::Spill(e) => write!(f, "spill log error: {e}"),
            Pm2Error::Timeout { op } => write!(f, "{op} got no reply in time"),
        }
    }
}

impl std::error::Error for Pm2Error {}

/// Result alias for the runtime.
pub type Result<T> = std::result::Result<T, Pm2Error>;
