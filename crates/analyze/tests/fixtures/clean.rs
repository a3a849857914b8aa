//! Fixture: code that must produce ZERO diagnostics — the false-positive
//! gauntlet. Concurrency hazards appear only in strings, comments, doc
//! text, and `#[cfg(test)]` code; the code itself uses the sanctioned
//! shapes.

/// Doc comment showing `let g = m.lock(); let g = cv.wait(g);` — prose.
pub fn take(&self) -> Job {
    // A line comment with self.ready.wait(guard) outside any loop.
    let msg = "strings can say a.lock(); b.lock().unwrap(); cv.wait(g)";
    let mut guard = self.inner.lock();
    while guard.queue.is_empty() {
        guard = self.ready.wait(guard);
    }
    guard.queue.pop().unwrap_or_else(|| Job::named(msg))
}

pub fn run_sorter(edges: Vec<Edge>) -> Vec<Edge> {
    let (tx, rx) = bounded::<Vec<Edge>>(4);
    let sorter = thread::spawn(move || sort_worker(rx));
    tx.send(edges);
    drop(tx);
    sorter.join()
}

pub fn chunk_sums(chunks: &[Vec<u64>]) -> Vec<u64> {
    chunks
        .par_iter()
        .map(|c| {
            let mut acc = 0;
            for x in c {
                acc += x;
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let outer = STATE.lock();
        let inner = METRICS.lock().unwrap();
        let outer = READY.wait(outer);
        drop((outer, inner));
    }
}
