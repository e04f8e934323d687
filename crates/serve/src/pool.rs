//! A failover-aware endpoint pool over [`ServeClient`]: one primary,
//! any number of replicas, automatic re-targeting when the connected
//! endpoint dies.
//!
//! # Contract
//!
//! * **Reads** ([`ClientPool::read`]) go to the currently connected
//!   endpoint; a transport failure (connect refused, mid-request socket
//!   death) rotates to the next endpoint under the pool's
//!   [`RetryPolicy`] until one answers or the attempt budget is spent.
//!   A *typed* error response is an answer, not a failure — it returns
//!   `Ok(Response::Error { .. })` and does not rotate, except for
//!   [`ErrorCode::ShuttingDown`], which marks the endpoint as dying and
//!   retries elsewhere.
//! * **Writes** ([`ClientPool::write`]) are pinned to the first
//!   endpoint (the primary): replicas refuse them with `NotPrimary`, so
//!   rotating a write is never useful — the pool retries the primary
//!   under the policy and otherwise surfaces the failure.
//!
//! Reads after a failover may observe an older state than the lost
//! primary had acked — that is the nature of asynchronous replication.
//! A caller that needs read-your-writes threads the `lsn` from its
//! [`Response::Ingested`] ack into
//! [`QueryOptions::min_lsn`](mst_search::QueryOptions::min_lsn): a
//! lagging replica then answers a typed `ReplicaLagging` instead of
//! stale data, and the caller retries or waits.

use std::net::SocketAddr;

use crate::client::{RetryPolicy, ServeClient};
use crate::protocol::{ErrorCode, Request, Response, WireError};

/// A pool of serving endpoints with transparent read failover.
pub struct ClientPool {
    endpoints: Vec<SocketAddr>,
    policy: RetryPolicy,
    depth: u16,
    /// The live connection and the endpoint index it targets.
    active: Option<(usize, ServeClient)>,
    /// Where the next rotation starts looking.
    cursor: usize,
}

impl ClientPool {
    /// Builds a pool over `endpoints` — the first is the primary (write
    /// target), the rest are replicas. Connections are opened lazily.
    pub fn new(endpoints: Vec<SocketAddr>, policy: RetryPolicy) -> Result<Self, WireError> {
        if endpoints.is_empty() {
            return Err(WireError::BadPayload("a client pool needs endpoints"));
        }
        Ok(ClientPool {
            endpoints,
            policy,
            depth: 8,
            active: None,
            cursor: 0,
        })
    }

    /// The endpoint index the pool is currently connected to, if any —
    /// observable so tests (and operators) can see a failover happen.
    pub fn active_endpoint(&self) -> Option<usize> {
        self.active.as_ref().map(|(i, _)| *i)
    }

    /// Sends a read request to the connected endpoint, failing over
    /// across the pool on transport errors. One full rotation with no
    /// endpoint answering surfaces the last transport error.
    pub fn read(&mut self, request: &Request) -> Result<Response, WireError> {
        let mut last: Option<WireError> = None;
        // One connect attempt per endpoint per rotation, a bounded
        // number of rotations: the pool never spins forever.
        let rotations = 2usize;
        for _ in 0..rotations * self.endpoints.len() {
            let (index, mut client) = match self.active.take() {
                Some(active) => active,
                None => match self.connect_next(&mut last) {
                    Some(active) => active,
                    None => continue,
                },
            };
            // A transport error drops the connection: it is in an unknown
            // frame state.
            match client.request(request) {
                Ok(response) => {
                    if let Response::Error {
                        code: ErrorCode::ShuttingDown,
                        ..
                    } = &response
                    {
                        // A draining endpoint answers typed, but keeping
                        // it active would fail every later request.
                        self.cursor = index + 1;
                        return Ok(response);
                    }
                    self.active = Some((index, client));
                    return Ok(response);
                }
                Err(e) => {
                    last = Some(e);
                    self.cursor = index + 1;
                }
            }
        }
        Err(last.unwrap_or(WireError::BadPayload("no endpoint answered the read")))
    }

    /// Sends a write request to the primary (endpoint 0), reconnecting
    /// under the policy but never failing over — a replica cannot accept
    /// it anyway.
    pub fn write(&mut self, request: &Request) -> Result<Response, WireError> {
        // Reuse the live connection only if it already targets the
        // primary; otherwise park it and dial endpoint 0.
        let client = match self.active.take() {
            Some((0, client)) => Some(client),
            Some(active) => {
                self.active = Some(active);
                None
            }
            None => None,
        };
        let mut client = match client {
            Some(client) => client,
            None => ServeClient::connect_with_retry(self.endpoints[0], self.depth, &self.policy)?,
        };
        match client.request(request) {
            Ok(response) => {
                self.active = Some((0, client));
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }

    /// Dials the next endpoint in rotation order. `None` records the
    /// connect error and advances the cursor.
    fn connect_next(&mut self, last: &mut Option<WireError>) -> Option<(usize, ServeClient)> {
        let index = self.cursor % self.endpoints.len();
        self.cursor = index + 1;
        match ServeClient::connect_with_retry(self.endpoints[index], self.depth, &self.policy) {
            Ok(client) => Some((index, client)),
            Err(e) => {
                *last = Some(e);
                None
            }
        }
    }
}
