//! The replica side of WAL shipping: the bootstrap snapshot fetch and
//! the applier loop that follows the primary.
//!
//! The replica is an ordinary wire-protocol v2 **client** of the
//! primary. One `Subscribe { from_lsn }` opens the stream; from then on
//! every `ReplicaAck { lsn }` doubles as "send me what follows `lsn`",
//! so the stream needs no server-side cursor state — a reconnect simply
//! subscribes again from the replica's own applied LSN. An empty
//! `Replicate` batch is the heartbeat: it still carries the primary's
//! committed LSN, which keeps the replica's lag gauge live while the
//! primary is write-idle.
//!
//! Every shipped frame is re-verified and applied through
//! [`mst_wal::DurableDatabase::apply_replicated`] — the same
//! log-then-apply path as local ingest, with gapless-LSN enforcement —
//! so a corrupt or resequenced stream refuses loudly instead of
//! diverging silently. After each applied batch the applier invalidates
//! the answer cache and advances the visibility watermark, making
//! `min_lsn` reads exact on the replica.
//!
//! A lost primary is retried forever with jittered backoff; the replica
//! keeps serving reads at its last applied state throughout. The one
//! unrecoverable-in-place situation is falling below the primary's
//! replication floor while disconnected (the primary checkpointed past
//! our position): the stream would need a fresh snapshot, but the
//! serving layer holds `Arc` clones of the current shards, so the
//! database cannot be swapped out from under it. The applier keeps
//! retrying (the floor never rises past a connected subscriber's acks
//! in practice); restarting the replica with an empty store
//! re-bootstraps it.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration; // invariant: no clock is read; only sleeps and socket timeouts

use mst_wal::{DurableDatabase, DurableSubstrate, LogStore};

use crate::client::{RetryPolicy, ServeClient};
use crate::protocol::{Request, Response, ServerStats, WireError};
use crate::server::Shared;

/// Read timeout on the applier's connection to the primary: bounds how
/// long a shutdown waits on a silent socket, and paces reconnect
/// discovery when the primary dies without a FIN.
const APPLIER_READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Pause between polls while the primary has nothing new — the replica's
/// contribution to the poll period (the primary's coalescer tick is the
/// other part).
const IDLE_POLL_PAUSE: Duration = Duration::from_millis(3);

/// Read timeout while pulling the bootstrap snapshot, which can be a
/// multi-megabyte frame: generous, but still bounded.
const BOOTSTRAP_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Fetches a bootstrap snapshot from the primary: `Subscribe` with the
/// `from_lsn: 0` sentinel, which sits below any replication floor and
/// therefore always answers a full snapshot encoded at the primary's
/// committed LSN.
pub(crate) fn fetch_bootstrap_snapshot(
    primary: SocketAddr,
    retry: &RetryPolicy,
) -> Result<Vec<u8>, String> {
    let mut client = ServeClient::connect_with_retry(primary, 1, retry)
        .map_err(|e| format!("connecting to the primary at {primary}: {e}"))?;
    // invariant: a socket that rejects the timeout still reads; the
    // bound is a liveness nicety, not a correctness requirement
    let _ = client
        .raw_stream()
        .set_read_timeout(Some(BOOTSTRAP_READ_TIMEOUT));
    match client.request(&Request::Subscribe { from_lsn: 0 }) {
        Ok(Response::Replicate {
            snapshot: Some(snapshot),
            ..
        }) => Ok(snapshot),
        Ok(Response::Replicate { snapshot: None, .. }) => Err(
            "the primary answered the bootstrap subscribe with records instead of a snapshot"
                .into(),
        ),
        Ok(Response::Error { code, message }) => Err(format!(
            "the primary refused the subscription ({code:?}): {message}"
        )),
        Ok(_) => Err("the primary answered the subscribe with a non-replication frame".into()),
        Err(e) => Err(format!("streaming the bootstrap snapshot: {e}")),
    }
}

/// The replica applier: follows the primary until shutdown, applying
/// shipped batches and acking each one. Runs on the `mst-serve-repl`
/// thread; [`crate::server::ServerHandle`] joins it at teardown.
pub(crate) fn applier_loop<I, S>(
    shared: &Arc<Shared<I>>,
    mut durable: DurableDatabase<I, S>,
    primary: SocketAddr,
    retry: &RetryPolicy,
) where
    I: DurableSubstrate + Send + 'static,
    S: LogStore + Send + 'static,
    S::Log: Send,
{
    let mut first_connection = true;
    // Consecutive failed rounds, for backoff shaping; resets on any
    // successfully applied batch or heartbeat.
    let mut failed_rounds: u32 = 0;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        if !first_connection {
            ServerStats::bump(&shared.stats.repl_reconnects);
            backoff_sleep(shared, retry, failed_rounds);
            failed_rounds = failed_rounds.saturating_add(1);
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
        }
        first_connection = false;
        let mut client = match ServeClient::connect_with_retry(primary, 1, retry) {
            Ok(client) => client,
            Err(_) => continue,
        };
        // invariant: as in the bootstrap — the timeout bounds shutdown
        // latency; a socket that refuses it merely drains slower
        let _ = client
            .raw_stream()
            .set_read_timeout(Some(APPLIER_READ_TIMEOUT));
        let from_lsn = durable.applied_lsn().saturating_add(1);
        let Some(mut response) = exchange(shared, &mut client, &Request::Subscribe { from_lsn })
        else {
            continue;
        };
        // The streaming loop: apply what arrived, ack, wait for more.
        loop {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            match response {
                Response::Replicate {
                    committed_lsn,
                    snapshot,
                    records,
                } => {
                    ServerStats::raise(&shared.stats.repl_committed_lsn, committed_lsn);
                    if snapshot.is_some() {
                        // We fell below the primary's replication floor:
                        // a snapshot cannot be applied in place (the
                        // serving layer holds the current shards), so
                        // back off, retry, and keep serving what we
                        // have. A restart with an empty store
                        // re-bootstraps.
                        break;
                    }
                    if records.is_empty() {
                        // Heartbeat: the gauge above is the payload.
                        failed_rounds = 0;
                        std::thread::sleep(IDLE_POLL_PAUSE);
                    } else {
                        let shipped = records.len() as u64;
                        match durable.apply_replicated(&records) {
                            Ok(applied) => {
                                failed_rounds = 0;
                                // Visibility settles before the ack: the
                                // cache first, then the watermark, so a
                                // `min_lsn` read admitted after the
                                // watermark moved can never hit a stale
                                // cached answer.
                                shared.cache.invalidate();
                                shared.watermark.advance(applied);
                                ServerStats::raise(&shared.stats.repl_applied_lsn, applied);
                                ServerStats::bump_by(&shared.stats.repl_records_applied, shipped);
                            }
                            // A gap or a tampered frame: nothing of the
                            // batch applied. Resubscribing from our real
                            // position is the only sound continuation.
                            Err(_) => break,
                        }
                    }
                    let ack = Request::ReplicaAck {
                        lsn: durable.applied_lsn(),
                    };
                    match exchange(shared, &mut client, &ack) {
                        Some(next) => response = next,
                        None => break,
                    }
                }
                // Typed refusals (draining primary, a primary demoted to
                // replica, overload) and anything unexpected: drop the
                // connection and retry through the backoff path.
                _ => break,
            }
        }
    }
}

/// Sends one request and waits for its response, tolerating read
/// timeouts (rechecking the shutdown flag each time) so a write-idle
/// primary doesn't look dead. `None` means the connection is unusable —
/// reconnect.
fn exchange<I>(
    shared: &Arc<Shared<I>>,
    client: &mut ServeClient,
    request: &Request,
) -> Option<Response> {
    let id = client.send(request).ok()?;
    loop {
        match client.wait(id) {
            Ok(response) => return Some(response),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Sleeps one jittered backoff round, in slices short enough that a
/// shutdown never waits behind a full backoff cap.
fn backoff_sleep<I>(shared: &Arc<Shared<I>>, retry: &RetryPolicy, round: u32) {
    let mut jitter = retry.jitter();
    let mut remaining_us = retry.delay_us(round, &mut jitter).max(1_000);
    while remaining_us > 0 && !shared.shutting_down.load(Ordering::SeqCst) {
        let slice = remaining_us.min(50_000);
        std::thread::sleep(Duration::from_micros(slice));
        remaining_us -= slice;
    }
}
