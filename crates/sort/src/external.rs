//! Out-of-core edge sorting: run generation + k-way merge.
//!
//! The classic external merge sort the paper calls for when "u and v are too
//! large to fit in memory":
//!
//! 1. **Run generation** — fill a buffer of at most `budget_edges` edges
//!    from the input stream, sort it in memory (stable radix), and spill it
//!    as an ordinary edge file (`run-NNNNN.tsv`) via `ppbench-io`.
//! 2. **Merge** — stream all runs back through a stable merge and feed the
//!    globally sorted stream to the caller's sink.
//!
//! Spilled runs use the same TSV format as the benchmark's own files, so the
//! spill traffic exercises exactly the I/O path the benchmark measures.
//!
//! The two phases are exposed separately as [`RunWriter`] (push edges,
//! spill at the budget) and [`RunSet::into_stream`] (a [`MergeStream`]
//! iterator over the sorted order), so a consumer can build its output
//! **mid-merge** — kernel 2's fused path constructs CSR straight off this
//! stream without ever materializing the sorted edge list.
//! [`ExternalSorter::sort`] composes the two for callers that just want a
//! sink called in sorted order.
//!
//! Run sorting is parallel when the pool has more than one worker: the
//! buffer is split into per-thread contiguous chunks, each chunk is radix
//! sorted in place, and a stable merge (earlier chunks win ties) streams
//! the merged order straight into the run writer — the result is
//! byte-identical to a full stable sort for any thread count, and the merge
//! overlaps with the run file's buffered write. Two-run merges (the common
//! case for two workers or a single spill) skip the binary heap entirely:
//! [`TwoWayMerge`] costs one comparison per element where the heap costs a
//! pop and a push.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use ppbench_io::checksum::EdgeDigest;
use ppbench_io::{Edge, EdgeReader, EdgeWriter, Error, Result};
use rayon::prelude::*;

use crate::kway::{KWayMerge, TwoWayMerge};
use crate::{radix_sort_slice, SortKey};

/// Statistics from an external sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExternalStats {
    /// Number of edges sorted.
    pub edges: u64,
    /// Number of sorted runs spilled to disk (0 when the input was empty).
    pub runs: usize,
    /// Largest number of edges held in memory at once.
    pub peak_buffer: usize,
    /// Digest of the input stream as consumed, in arrival order. Callers
    /// that hold a manifest for the input verify it against this to catch
    /// truncated-but-parseable files.
    pub input_digest: EdgeDigest,
}

/// Below this buffer size a parallel chunk sort costs more in thread spawns
/// than it saves; sort serially instead. Radix sort moves ~250 MB/s of
/// edges per core, so a 2^18-edge run (~4 MB) sorts in milliseconds —
/// spawning and joining a pool for less than that is where the committed
/// 2-thread sweep numbers lost to 1-thread.
const PAR_SORT_MIN: usize = 1 << 18;

/// Stably sorts `buffer` under `key` and feeds the sorted order to `emit`.
///
/// With multiple workers the buffer is chunk-sorted in parallel and merged
/// stably on the fly (ties prefer earlier chunks, so the emitted order is
/// exactly the full stable sort's regardless of worker count); `buffer`
/// itself is left only chunk-sorted in that case — callers must consume the
/// emitted stream, not the buffer.
fn sort_stably_into<F>(buffer: &mut [Edge], key: SortKey, mut emit: F) -> Result<()>
where
    F: FnMut(Edge) -> Result<()>,
{
    let workers = rayon::current_num_threads().max(1);
    if workers <= 1 || buffer.len() < PAR_SORT_MIN {
        radix_sort_slice(buffer, key);
        for &e in buffer.iter() {
            emit(e)?;
        }
        return Ok(());
    }
    let chunk = buffer.len().div_ceil(workers);
    let parts: Vec<&mut [Edge]> = buffer.chunks_mut(chunk).collect();
    let _sorted: Vec<()> = parts
        .into_par_iter()
        .map(|part| radix_sort_slice(part, key))
        .collect();
    let mut head = buffer.chunks(chunk).map(|c| c.iter().copied());
    match (head.next(), head.next(), head.next()) {
        (Some(a), Some(b), None) => {
            for e in TwoWayMerge::new(a, b, key) {
                emit(e)?;
            }
        }
        _ => {
            let runs: Vec<_> = buffer.chunks(chunk).map(|c| c.iter().copied()).collect();
            for e in KWayMerge::new(runs, key) {
                emit(e)?;
            }
        }
    }
    Ok(())
}

/// Out-of-core sorter with an explicit memory budget.
#[derive(Debug)]
pub struct ExternalSorter {
    scratch_dir: PathBuf,
    budget_edges: usize,
    key: SortKey,
}

impl ExternalSorter {
    /// Creates a sorter spilling runs into `scratch_dir`, holding at most
    /// `budget_edges` edges in memory.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `budget_edges == 0`.
    pub fn new(scratch_dir: &Path, budget_edges: usize, key: SortKey) -> Result<Self> {
        if budget_edges == 0 {
            return Err(Error::InvalidConfig(
                "external sort budget must be positive".into(),
            ));
        }
        Ok(Self {
            scratch_dir: scratch_dir.to_path_buf(),
            budget_edges,
            key,
        })
    }

    /// Begins an incremental sort: push edges into the returned
    /// [`RunWriter`], seal it with [`RunWriter::finish`], then merge with
    /// [`RunSet::into_stream`]. [`ExternalSorter::sort`] composes exactly
    /// this sequence; the split form exists so a consumer can take the
    /// sorted stream mid-merge (the fused kernel-2 path) or move the
    /// sealed [`RunSet`] to another thread before merging.
    pub fn run_writer(&self) -> Result<RunWriter> {
        std::fs::create_dir_all(&self.scratch_dir).map_err(|e| Error::io(&self.scratch_dir, e))?;
        Ok(RunWriter {
            scratch_dir: self.scratch_dir.clone(),
            budget_edges: self.budget_edges,
            key: self.key,
            buffer: Vec::with_capacity(self.budget_edges.min(1 << 20)),
            run_dirs: RunDirs::default(),
            stats: ExternalStats::default(),
        })
    }

    /// Sorts `input`, delivering the sorted stream to `sink` one edge at a
    /// time. Returns statistics. Scratch files are removed before returning.
    pub fn sort<I, F>(&self, input: I, mut sink: F) -> Result<ExternalStats>
    where
        I: IntoIterator<Item = Result<Edge>>,
        F: FnMut(Edge) -> Result<()>,
    {
        let mut writer = self.run_writer()?;
        for edge in input {
            writer.push(edge?)?;
        }
        let set = writer.finish()?;
        let stats = *set.stats();
        for edge in set.into_stream()? {
            sink(edge?)?;
        }
        Ok(stats)
    }
}

/// Spilled run directories with exactly one owner at a time: the
/// [`RunWriter`] that spilled them, then the sealed [`RunSet`], then the
/// [`MergeStream`] reading them. Whichever holds them when it is dropped
/// removes them, so an error anywhere between spill and merge leaves no
/// run files behind.
#[derive(Debug, Default)]
struct RunDirs(Vec<PathBuf>);

impl Drop for RunDirs {
    fn drop(&mut self) {
        for dir in &self.0 {
            #[expect(
                clippy::let_underscore_untyped,
                reason = "best-effort scratch cleanup; the sort already succeeded or failed"
            )]
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Accumulates edges for an out-of-core sort, spilling a sorted run
/// whenever the budget fills. Created by [`ExternalSorter::run_writer`];
/// sealed into a [`RunSet`] by [`RunWriter::finish`]. Dropping an unsealed
/// writer removes the runs it spilled.
#[derive(Debug)]
pub struct RunWriter {
    scratch_dir: PathBuf,
    budget_edges: usize,
    key: SortKey,
    buffer: Vec<Edge>,
    run_dirs: RunDirs,
    stats: ExternalStats,
}

impl RunWriter {
    /// Adds one edge, spilling a sorted run if the buffer is full.
    pub fn push(&mut self, edge: Edge) -> Result<()> {
        self.stats.input_digest.update(edge);
        self.buffer.push(edge);
        self.stats.edges += 1;
        if self.buffer.len() >= self.budget_edges {
            self.spill()?;
        }
        Ok(())
    }

    /// The statistics accumulated so far (digest, edge count, spills).
    pub fn stats(&self) -> &ExternalStats {
        &self.stats
    }

    /// Seals the run set. An unspilled buffer becomes a single fully
    /// sorted in-memory run (stable, thread-count invariant); otherwise
    /// the remaining buffer is spilled and the set holds only run
    /// directories, so it is cheap to move across threads.
    pub fn finish(mut self) -> Result<RunSet> {
        self.stats.peak_buffer = self.stats.peak_buffer.max(self.buffer.len());
        if self.run_dirs.0.is_empty() {
            self.stats.runs = usize::from(!self.buffer.is_empty());
            let workers = rayon::current_num_threads().max(1);
            let store = if workers <= 1 || self.buffer.len() < PAR_SORT_MIN {
                radix_sort_slice(&mut self.buffer, self.key);
                RunStore::Memory(self.buffer)
            } else {
                let mut sorted = Vec::with_capacity(self.buffer.len());
                sort_stably_into(&mut self.buffer, self.key, |e| {
                    sorted.push(e);
                    Ok(())
                })?;
                RunStore::Memory(sorted)
            };
            return Ok(RunSet {
                store,
                key: self.key,
                stats: self.stats,
            });
        }
        if !self.buffer.is_empty() {
            self.spill()?;
        }
        Ok(RunSet {
            store: RunStore::Disk(self.run_dirs),
            key: self.key,
            stats: self.stats,
        })
    }

    fn spill(&mut self) -> Result<()> {
        self.stats.peak_buffer = self.stats.peak_buffer.max(self.buffer.len());
        let dir = self
            .scratch_dir
            .join(format!("run-{:05}", self.run_dirs.0.len()));
        // Scratch runs are re-read immediately and deleted after the merge;
        // fsyncing them would only tax the spill path.
        let mut w = EdgeWriter::create(&dir, "run", 1, self.buffer.len() as u64)?.durable(false);
        sort_stably_into(&mut self.buffer, self.key, |e| w.write(e))?;
        w.finish(None, None, self.key.sort_state())?;
        self.run_dirs.0.push(dir);
        self.stats.runs += 1;
        self.buffer.clear();
        Ok(())
    }
}

/// A sealed set of sorted runs: either one fully sorted in-memory run or
/// the directories of spilled runs. `Send`, so a set written on one thread
/// can be merged on another — the fused kernel-2 path seals one set per
/// vertex-range bucket and opens each stream inside its own worker.
/// Dropping a set that was never opened removes its runs.
#[derive(Debug)]
pub struct RunSet {
    store: RunStore,
    key: SortKey,
    stats: ExternalStats,
}

#[derive(Debug)]
enum RunStore {
    Memory(Vec<Edge>),
    Disk(RunDirs),
}

impl RunSet {
    /// Statistics accumulated while the runs were written.
    pub fn stats(&self) -> &ExternalStats {
        &self.stats
    }

    /// Opens the merge, yielding the globally sorted edge stream.
    pub fn into_stream(self) -> Result<MergeStream> {
        let err: Rc<RefCell<Option<Error>>> = Rc::new(RefCell::new(None));
        let (inner, run_dirs) = match self.store {
            RunStore::Memory(buffer) => (StreamInner::Mem(buffer.into_iter()), RunDirs::default()),
            RunStore::Disk(dirs) => {
                let mut runs: Vec<RunIter> = Vec::with_capacity(dirs.0.len());
                for dir in &dirs.0 {
                    let (_, iter) = EdgeReader::open_dir(dir)?;
                    let cell = Rc::clone(&err);
                    runs.push(Box::new(iter.map_while(move |r| match r {
                        Ok(e) => Some(e),
                        Err(e) => {
                            *cell.borrow_mut() = Some(e);
                            None
                        }
                    })));
                }
                let mut drain = runs.into_iter();
                let inner = match (drain.next(), drain.next(), drain.next()) {
                    (Some(a), Some(b), None) => StreamInner::Two(TwoWayMerge::new(a, b, self.key)),
                    (first, second, third) => {
                        let rest: Vec<RunIter> = [first, second, third]
                            .into_iter()
                            .flatten()
                            .chain(drain)
                            .collect();
                        StreamInner::Heap(KWayMerge::new(rest, self.key))
                    }
                };
                (inner, dirs)
            }
        };
        Ok(MergeStream {
            inner,
            err,
            _run_dirs: run_dirs,
            failed: false,
        })
    }
}

type RunIter = Box<dyn Iterator<Item = Edge>>;

enum StreamInner {
    Mem(std::vec::IntoIter<Edge>),
    Two(TwoWayMerge<RunIter>),
    Heap(KWayMerge<RunIter>),
}

/// The sorted output of a [`RunSet`], consumable one edge at a time while
/// the merge is still in flight. Read errors from spilled runs surface as
/// `Err` items (at most one edge late); after the first error the stream
/// fuses shut. Dropping the stream removes the spilled run files.
pub struct MergeStream {
    // Field order is drop order: close the run readers before removing
    // their directories (held only to be removed on drop).
    inner: StreamInner,
    err: Rc<RefCell<Option<Error>>>,
    _run_dirs: RunDirs,
    failed: bool,
}

impl Iterator for MergeStream {
    type Item = Result<Edge>;

    fn next(&mut self) -> Option<Result<Edge>> {
        if self.failed {
            return None;
        }
        if let Some(e) = self.err.borrow_mut().take() {
            self.failed = true;
            return Some(Err(e));
        }
        let item = match &mut self.inner {
            StreamInner::Mem(it) => it.next(),
            StreamInner::Two(m) => m.next(),
            StreamInner::Heap(m) => m.next(),
        };
        match item {
            Some(edge) => Some(Ok(edge)),
            None => {
                let parked = self.err.borrow_mut().take();
                if parked.is_some() {
                    self.failed = true;
                }
                parked.map(Err)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            StreamInner::Mem(it) => it.size_hint(),
            StreamInner::Two(m) => (0, m.size_hint().1),
            StreamInner::Heap(m) => (0, m.size_hint().1),
        }
    }
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

    fn run_external(edges: &[Edge], budget: usize, key: SortKey) -> (Vec<Edge>, ExternalStats) {
        let td = TempDir::new("ppbench-extsort").unwrap();
        let sorter = ExternalSorter::new(td.path(), budget, key).unwrap();
        let mut out = Vec::new();
        let stats = sorter
            .sort(edges.iter().map(|&e| Ok(e)), |e| {
                out.push(e);
                Ok(())
            })
            .unwrap();
        (out, stats)
    }

    #[test]
    fn tiny_budget_forces_many_runs_and_still_sorts() {
        let edges = random_edges(1000, 500, 1);
        let (out, stats) = run_external(&edges, 64, SortKey::Start);
        assert_eq!(out.len(), edges.len());
        assert!(SortKey::Start.is_sorted(&out));
        assert!(stats.runs >= 15, "expected many runs, got {}", stats.runs);
        assert!(stats.peak_buffer <= 64);
        let mut a = out.clone();
        let mut b = edges.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "external sort lost or invented edges");
    }

    #[test]
    fn in_memory_fast_path_single_run() {
        let edges = random_edges(100, 50, 2);
        let (out, stats) = run_external(&edges, 1_000_000, SortKey::Start);
        assert!(SortKey::Start.is_sorted(&out));
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.edges, 100);
    }

    #[test]
    fn matches_in_memory_sort_exactly() {
        // Stability end-to-end: external (budget forcing spills) must equal
        // the stable in-memory radix sort byte for byte.
        let edges: Vec<Edge> = (0..2000u64).map(|i| Edge::new(i % 13, i)).collect();
        let (out, _) = run_external(&edges, 100, SortKey::Start);
        let mut expect = edges.clone();
        crate::radix_sort(&mut expect, SortKey::Start);
        assert_eq!(out, expect);
    }

    #[test]
    fn exactly_two_runs_take_the_two_way_path() {
        // A budget of exactly half forces two spilled runs, which the
        // merge serves through TwoWayMerge — the output must still equal
        // the stable in-memory sort byte for byte.
        let edges: Vec<Edge> = (0..1000u64).map(|i| Edge::new(i % 7, i)).collect();
        let (out, stats) = run_external(&edges, 500, SortKey::Start);
        assert_eq!(stats.runs, 2);
        let mut expect = edges.clone();
        crate::radix_sort(&mut expect, SortKey::Start);
        assert_eq!(out, expect);
    }

    #[test]
    fn input_digest_records_arrival_order() {
        let edges = random_edges(300, 64, 9);
        let (_, stats) = run_external(&edges, 50, SortKey::Start);
        let expect = ppbench_io::checksum::EdgeDigest::of_edges(&edges);
        assert!(stats.input_digest.same_stream(&expect));
    }

    #[test]
    fn parallel_chunk_sort_is_thread_count_invariant() {
        // The stable chunk merge must reproduce the serial stable sort
        // bit for bit for any worker count, including buffers above
        // PAR_SORT_MIN where the parallel path actually engages.
        let n = (PAR_SORT_MIN + 1234) as u64;
        let edges: Vec<Edge> = (0..n).map(|i| Edge::new(i % 97, i)).collect();
        let mut expect = edges.clone();
        crate::radix_sort(&mut expect, SortKey::Start);
        for workers in [1, 2, 5] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build_global()
                .unwrap();
            let mut buffer = edges.clone();
            let mut out = Vec::with_capacity(buffer.len());
            sort_stably_into(&mut buffer, SortKey::Start, |e| {
                out.push(e);
                Ok(())
            })
            .unwrap();
            assert_eq!(out, expect, "{workers} workers");
        }
        rayon::ThreadPoolBuilder::new().build_global().unwrap();
    }

    #[test]
    fn run_writer_stream_matches_sort() {
        // The split API (run_writer → finish → into_stream) is what sort()
        // composes; both must produce the identical stream and stats, with
        // and without spills.
        let edges = random_edges(2000, 300, 7);
        for budget in [150usize, 1 << 20] {
            let (via_sort, sort_stats) = run_external(&edges, budget, SortKey::StartEnd);
            let td = TempDir::new("ppbench-extsort").unwrap();
            let sorter = ExternalSorter::new(td.path(), budget, SortKey::StartEnd).unwrap();
            let mut writer = sorter.run_writer().unwrap();
            for &e in &edges {
                writer.push(e).unwrap();
            }
            let set = writer.finish().unwrap();
            let split_stats = *set.stats();
            let via_split: Vec<Edge> = set
                .into_stream()
                .unwrap()
                .collect::<Result<Vec<Edge>>>()
                .unwrap();
            assert_eq!(via_split, via_sort, "budget {budget}");
            assert_eq!(split_stats, sort_stats, "budget {budget}");
        }
    }

    #[test]
    fn run_set_is_send_and_merges_on_another_thread() {
        let edges = random_edges(600, 40, 11);
        let td = TempDir::new("ppbench-extsort").unwrap();
        let sorter = ExternalSorter::new(td.path(), 100, SortKey::Start).unwrap();
        let mut writer = sorter.run_writer().unwrap();
        for &e in &edges {
            writer.push(e).unwrap();
        }
        let set = writer.finish().unwrap();
        let out = std::thread::scope(|s| {
            s.spawn(move || {
                set.into_stream()
                    .unwrap()
                    .collect::<Result<Vec<Edge>>>()
                    .unwrap()
            })
            .join()
            .expect("merge thread panicked")
        });
        assert!(SortKey::Start.is_sorted(&out));
        assert_eq!(out.len(), edges.len());
    }

    #[test]
    fn dropping_the_stream_cleans_scratch() {
        let td = TempDir::new("ppbench-extsort").unwrap();
        let scratch = td.join("scratch");
        let sorter = ExternalSorter::new(&scratch, 8, SortKey::Start).unwrap();
        let mut writer = sorter.run_writer().unwrap();
        for &e in &random_edges(100, 50, 5) {
            writer.push(e).unwrap();
        }
        let stream = writer.finish().unwrap().into_stream().unwrap();
        // Abandon the merge after one edge; Drop must still clean up.
        drop(stream);
        let leftovers: Vec<_> = std::fs::read_dir(&scratch).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "scratch dir not cleaned: {leftovers:?}"
        );
    }

    #[test]
    fn empty_input() {
        let (out, stats) = run_external(&[], 10, SortKey::Start);
        assert!(out.is_empty());
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.edges, 0);
    }

    #[test]
    fn start_end_key_respected() {
        let edges = random_edges(500, 8, 3);
        let (out, _) = run_external(&edges, 50, SortKey::StartEnd);
        assert!(SortKey::StartEnd.is_sorted(&out));
    }

    #[test]
    fn zero_budget_rejected() {
        let td = TempDir::new("ppbench-extsort").unwrap();
        assert!(ExternalSorter::new(td.path(), 0, SortKey::Start).is_err());
    }

    #[test]
    fn input_errors_propagate() {
        let td = TempDir::new("ppbench-extsort").unwrap();
        let sorter = ExternalSorter::new(td.path(), 4, SortKey::Start).unwrap();
        let input = vec![
            Ok(Edge::new(1, 1)),
            Err(Error::InvalidConfig("boom".into())),
        ];
        let result = sorter.sort(input, |_| Ok(()));
        assert!(result.is_err());
    }

    #[test]
    fn sink_errors_propagate() {
        let td = TempDir::new("ppbench-extsort").unwrap();
        let sorter = ExternalSorter::new(td.path(), 4, SortKey::Start).unwrap();
        let edges = random_edges(20, 10, 4);
        let mut n = 0;
        let result = sorter.sort(edges.iter().map(|&e| Ok(e)), |_| {
            n += 1;
            if n > 5 {
                Err(Error::InvalidConfig("sink full".into()))
            } else {
                Ok(())
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn scratch_files_cleaned_up() {
        let td = TempDir::new("ppbench-extsort").unwrap();
        let scratch = td.join("scratch");
        let sorter = ExternalSorter::new(&scratch, 8, SortKey::Start).unwrap();
        let edges = random_edges(100, 50, 5);
        sorter
            .sort(edges.iter().map(|&e| Ok(e)), |_| Ok(()))
            .unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&scratch).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "scratch dir not cleaned: {leftovers:?}"
        );
    }
}
