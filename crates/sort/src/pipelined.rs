//! Pipelined out-of-core sorting: overlap parsing, sorting, and output.
//!
//! The plain [`crate::ExternalSorter`] alternates strictly between reading
//! input, sorting/spilling runs, and writing merged output, leaving the
//! storage device idle while the CPU sorts and vice versa. This variant
//! splits the work across three stages connected by bounded crossbeam
//! channels:
//!
//! 1. **Producer** (spawned thread): parses edges from the input stream
//!    into batches and sends them down the input channel.
//! 2. **Sorter** (spawned thread): feeds the external sorter from the input
//!    channel; the sorter's merged output is re-batched and sent down the
//!    output channel.
//! 3. **Sink** (calling thread): drains the output channel and applies the
//!    caller's sink, so output writing overlaps the tail of the merge.
//!
//! On hardware with independent I/O and compute resources the stages
//! overlap; the result is identical either way (both spill stable
//! radix-sorted runs and merge them stably).
//!
//! # Shutdown ordering
//!
//! Every failure mode must tear the pipeline down without deadlocking
//! against a full channel; the ordering is:
//!
//! * **Sink fails** (calling thread): the drain loop stops and drops the
//!   output receiver *before* joining the sorter thread. The sorter's next
//!   `send` then fails, aborting the merge; the sorter returns, dropping
//!   the input receiver, which unblocks the producer the same way. The
//!   sink's error takes precedence over the resulting hang-up errors.
//! * **Sort fails** (sorter thread): `ExternalSorter::sort` returns early
//!   (e.g. scratch-dir creation or a spill write failed) while the producer
//!   may still have arbitrarily many batches pending. The sorter thread
//!   returning drops the input receiver, so the producer's blocked `send`
//!   fails and it exits.
//! * **Producer fails**: the error is forwarded through the input channel
//!   and re-raised by the sorter after `sort` drains what it got.
//!
//! In all cases the calling thread joins the sorter thread only after
//! dropping the output receiver, so the join can never wait on a thread
//! that is itself blocked sending to us.

use std::path::Path;

use crossbeam::channel;
use ppbench_io::{Edge, Error, Result};

use crate::external::{ExternalSorter, ExternalStats};
use crate::SortKey;

/// Batch size flowing through the channels; big enough to amortize channel
/// overhead, small enough to bound pipeline memory.
const BATCH: usize = 1 << 14;

/// Channel depth: how many batches may be in flight between adjacent
/// stages.
const IN_FLIGHT: usize = 4;

/// The error a stage reports when the stage downstream of it disappeared.
/// It only surfaces if the downstream stage vanished *without* reporting
/// its own error, which no current teardown path does.
fn hangup() -> Error {
    Error::InvalidConfig("pipelined sort: output stage hung up before the merge finished".into())
}

/// Like [`ExternalSorter::sort`], with the input stream consumed and the
/// runs sorted/merged on separate threads so parsing, sorting, and output
/// writing overlap.
///
/// `input` must be `Send` (file iterators are); `sink` runs on the calling
/// thread.
pub fn pipelined_sort<I, F>(
    scratch_dir: &Path,
    budget_edges: usize,
    key: SortKey,
    input: I,
    mut sink: F,
) -> Result<ExternalStats>
where
    I: IntoIterator<Item = Result<Edge>> + Send,
    I::IntoIter: Send,
    F: FnMut(Edge) -> Result<()>,
{
    let sorter = ExternalSorter::new(scratch_dir, budget_edges, key)?;
    let (in_tx, in_rx) = channel::bounded::<Result<Vec<Edge>>>(IN_FLIGHT);
    let (out_tx, out_rx) = channel::bounded::<Vec<Edge>>(IN_FLIGHT);

    std::thread::scope(|scope| {
        // Stage 1: read + parse into batches.
        scope.spawn(move || {
            let mut batch = Vec::with_capacity(BATCH);
            for item in input {
                match item {
                    Ok(e) => {
                        batch.push(e);
                        if batch.len() >= BATCH
                            && in_tx
                                .send(Ok(std::mem::replace(&mut batch, Vec::with_capacity(BATCH))))
                                .is_err()
                        {
                            return; // sorter gone (error path)
                        }
                    }
                    Err(e) => {
                        #[expect(clippy::let_underscore_untyped, reason = "a failed send means the sorter hung up; the producer just stops")]
                        let _ = in_tx.send(Err(e));
                        return;
                    }
                }
            }
            if !batch.is_empty() {
                #[expect(clippy::let_underscore_untyped, reason = "a failed send means the sorter hung up; the producer just stops")]
                let _ = in_tx.send(Ok(batch));
            }
            // Dropping in_tx closes the channel.
        });

        // Stage 2: feed the external sorter; re-batch its merged output.
        let sorter_thread = scope.spawn(move || -> Result<ExternalStats> {
            let mut channel_error: Option<Error> = None;
            let mut pending: Vec<Edge> = Vec::with_capacity(BATCH);
            let sorted = {
                let channel_error = &mut channel_error;
                let edge_stream = in_rx
                    .into_iter()
                    .map_while(move |batch| match batch {
                        Ok(edges) => Some(edges),
                        Err(e) => {
                            *channel_error = Some(e);
                            None
                        }
                    })
                    .flatten()
                    .map(Ok);
                let pending = &mut pending;
                let out_tx = &out_tx;
                sorter.sort(edge_stream, move |e| {
                    pending.push(e);
                    if pending.len() >= BATCH {
                        out_tx
                            .send(std::mem::replace(pending, Vec::with_capacity(BATCH)))
                            .map_err(|_| hangup())?;
                    }
                    Ok(())
                })
            };
            match sorted {
                Ok(stats) => {
                    if let Some(e) = channel_error {
                        return Err(e);
                    }
                    if !pending.is_empty() {
                        out_tx.send(pending).map_err(|_| hangup())?;
                    }
                    Ok(stats)
                }
                // A producer error surfaced mid-sort trumps the sorter's
                // own (usually derivative) failure.
                Err(e) => Err(channel_error.take().unwrap_or(e)),
            }
            // Dropping out_tx closes the output channel.
        });

        // Stage 3 (this thread): drain the merged output into the sink.
        let mut sink_error: Option<Error> = None;
        'recv: for batch in out_rx.iter() {
            for e in batch {
                if let Err(e) = sink(e) {
                    sink_error = Some(e);
                    break 'recv;
                }
            }
        }
        // Drop the receiver BEFORE joining: if the sorter is blocked on a
        // full output channel, this is what unblocks it.
        drop(out_rx);
        let joined = match sorter_thread.join() {
            Ok(result) => result,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match sink_error {
            Some(e) => Err(e),
            None => joined,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_io::tempdir::TempDir;
    use ppbench_prng::{Rng64, SeedableRng64, Xoshiro256pp};

    fn random_edges(n: usize, bound: u64, seed: u64) -> Vec<Edge> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| Edge::new(rng.next_below(bound), rng.next_below(bound)))
            .collect()
    }

    #[test]
    fn pipelined_equals_plain_external_sort() {
        let edges = random_edges(50_000, 1 << 12, 1);
        let td = TempDir::new("pipe-sort").unwrap();
        let mut plain = Vec::new();
        ExternalSorter::new(&td.join("plain"), 4096, SortKey::Start)
            .unwrap()
            .sort(edges.iter().map(|&e| Ok(e)), |e| {
                plain.push(e);
                Ok(())
            })
            .unwrap();
        let mut piped = Vec::new();
        let stats = pipelined_sort(
            &td.join("piped"),
            4096,
            SortKey::Start,
            edges.iter().map(|&e| Ok(e)),
            |e| {
                piped.push(e);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(piped, plain, "pipelining must not change the stable result");
        assert_eq!(stats.edges, edges.len() as u64);
        assert!(stats.runs > 1, "budget should force spilling");
    }

    #[test]
    fn pipelined_handles_small_inputs() {
        let td = TempDir::new("pipe-sort").unwrap();
        let edges = random_edges(10, 8, 2);
        let mut out = Vec::new();
        let stats = pipelined_sort(
            td.path(),
            1000,
            SortKey::Start,
            edges.iter().map(|&e| Ok(e)),
            |e| {
                out.push(e);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out.len(), 10);
        assert!(SortKey::Start.is_sorted(&out));
        assert_eq!(stats.edges, 10);
    }

    #[test]
    fn pipelined_empty_input() {
        let td = TempDir::new("pipe-sort").unwrap();
        let stats = pipelined_sort(
            td.path(),
            100,
            SortKey::Start,
            std::iter::empty::<Result<Edge>>(),
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(stats.edges, 0);
    }

    #[test]
    fn producer_errors_propagate() {
        let td = TempDir::new("pipe-sort").unwrap();
        let input: Vec<Result<Edge>> = vec![
            Ok(Edge::new(1, 1)),
            Err(Error::InvalidConfig("mid-stream failure".into())),
            Ok(Edge::new(2, 2)),
        ];
        let result = pipelined_sort(td.path(), 100, SortKey::Start, input, |_| Ok(()));
        assert!(result.is_err());
    }

    #[test]
    fn sink_errors_propagate() {
        let td = TempDir::new("pipe-sort").unwrap();
        let edges = random_edges(100, 16, 3);
        let mut n = 0;
        let result = pipelined_sort(
            td.path(),
            10,
            SortKey::Start,
            edges.iter().map(|&e| Ok(e)),
            |_| {
                n += 1;
                if n > 3 {
                    Err(Error::InvalidConfig("sink full".into()))
                } else {
                    Ok(())
                }
            },
        );
        let err = result.unwrap_err();
        assert!(err.to_string().contains("sink full"), "{err}");
    }

    /// Pins the sink-failure teardown: the sink fails on the very first
    /// merged edge while the merge still has far more than
    /// `IN_FLIGHT * BATCH` edges to deliver, so the sorter thread WILL
    /// block on the full output channel. Dropping the output receiver
    /// before joining is what keeps this from deadlocking; the test
    /// completing (and returning the sink's own error) is the assertion.
    #[test]
    fn sink_failure_mid_merge_does_not_deadlock() {
        let td = TempDir::new("pipe-sort").unwrap();
        let n = 2 * IN_FLIGHT * BATCH + 123;
        let edges = random_edges(n, 1 << 20, 4);
        let result = pipelined_sort(
            td.path(),
            n / 8,
            SortKey::Start,
            edges.iter().map(|&e| Ok(e)),
            |_| Err(Error::InvalidConfig("sink rejects everything".into())),
        );
        let err = result.unwrap_err();
        assert!(err.to_string().contains("sink rejects everything"), "{err}");
    }

    /// Pins the sort-failure teardown: the scratch path is a regular file,
    /// so `ExternalSorter::sort` fails creating its run directory while the
    /// producer still has far more than `IN_FLIGHT` batches pending. The
    /// sorter thread returning must drop the input receiver and unblock the
    /// producer; the test completing with the I/O error is the assertion.
    #[test]
    fn sort_failure_with_pending_producer_batches_does_not_deadlock() {
        let td = TempDir::new("pipe-sort").unwrap();
        let scratch = td.join("not-a-dir");
        std::fs::write(&scratch, b"occupied").unwrap();
        let n = 2 * IN_FLIGHT * BATCH + 7;
        let edges = random_edges(n, 1 << 20, 5);
        let result = pipelined_sort(
            &scratch,
            1000,
            SortKey::Start,
            edges.iter().map(|&e| Ok(e)),
            |_| Ok(()),
        );
        assert!(result.is_err());
    }
}
