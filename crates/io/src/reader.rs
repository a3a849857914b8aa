//! Buffered multi-file edge reader.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use crate::checksum::EdgeDigest;
use crate::format;
use crate::manifest::{EdgeEncoding, Manifest};
use crate::{Edge, Error, Result};

/// Buffer size for file reads.
const READ_BUF_BYTES: usize = 1 << 20;

/// Entry points for reading edge file sets.
pub struct EdgeReader;

impl EdgeReader {
    /// Opens the file set described by `dir/manifest.tsv`, returning the
    /// manifest and a streaming iterator over all edges in stream order.
    pub fn open_dir(dir: &Path) -> Result<(Manifest, EdgeFileIter)> {
        let manifest = Manifest::load(dir)?;
        let iter = EdgeFileIter::with_encoding(manifest.file_paths(dir), manifest.encoding);
        Ok((manifest, iter))
    }

    /// Opens an explicit list of text-encoded files (no manifest required).
    pub fn open_files(paths: Vec<PathBuf>) -> EdgeFileIter {
        EdgeFileIter::new(paths)
    }

    /// Reads every edge of a manifest-described directory into memory and
    /// verifies the stream digest recorded in the manifest.
    pub fn read_dir_all(dir: &Path) -> Result<(Manifest, Vec<Edge>)> {
        let (manifest, iter) = Self::open_dir(dir)?;
        // The manifest's edge count is untrusted on-disk input: a corrupt
        // or hostile value (`edges: u64::MAX`) must not drive an allocation.
        // Bound it by what the files' bytes could possibly encode before
        // preallocating.
        let disk_cap = manifest.max_edges_on_disk(dir);
        if manifest.edges > disk_cap {
            return Err(Error::manifest(
                dir.join(crate::manifest::MANIFEST_NAME),
                format!(
                    "manifest claims {} edges but the files on disk can hold \
                     at most {disk_cap}",
                    manifest.edges
                ),
            ));
        }
        let mut edges = Vec::with_capacity(manifest.edges as usize);
        let mut digest = EdgeDigest::new();
        for e in iter {
            let e = e?;
            digest.update(e);
            edges.push(e);
        }
        if !digest.same_stream(&manifest.digest) {
            return Err(Error::manifest(
                dir.join(crate::manifest::MANIFEST_NAME),
                format!(
                    "edge stream does not match manifest digest \
                     (read {} edges, manifest says {})",
                    digest.count, manifest.edges
                ),
            ));
        }
        Ok((manifest, edges))
    }
}

/// Streaming iterator over the edges of an ordered list of files.
///
/// Yields `Result<Edge>`: I/O and parse errors surface as items, after which
/// iteration ends.
#[derive(Debug)]
pub struct EdgeFileIter {
    paths: std::vec::IntoIter<PathBuf>,
    current: Option<(PathBuf, BufReader<File>, u64)>,
    line_buf: Vec<u8>,
    failed: bool,
    encoding: EdgeEncoding,
}

impl EdgeFileIter {
    fn new(paths: Vec<PathBuf>) -> Self {
        Self::with_encoding(paths, EdgeEncoding::Text)
    }

    fn with_encoding(paths: Vec<PathBuf>, encoding: EdgeEncoding) -> Self {
        Self {
            paths: paths.into_iter(),
            current: None,
            line_buf: Vec::with_capacity(format::MAX_LINE_BYTES),
            failed: false,
            encoding,
        }
    }

    fn advance_file(&mut self) -> Result<bool> {
        match self.paths.next() {
            Some(path) => {
                let file = File::open(&path).map_err(|e| Error::io(&path, e))?;
                self.current = Some((path, BufReader::with_capacity(READ_BUF_BYTES, file), 0));
                Ok(true)
            }
            None => {
                self.current = None;
                Ok(false)
            }
        }
    }

    fn next_edge(&mut self) -> Result<Option<Edge>> {
        if self.encoding == EdgeEncoding::Binary {
            return self.next_edge_binary();
        }
        loop {
            if self.current.is_none() && !self.advance_file()? {
                return Ok(None);
            }
            let Some((path, reader, line_no)) = self.current.as_mut() else {
                continue;
            };
            self.line_buf.clear();
            let n = reader
                .read_until(b'\n', &mut self.line_buf)
                .map_err(|e| Error::io(&*path, e))?;
            if n == 0 {
                // EOF on this file; move to the next.
                self.current = None;
                continue;
            }
            *line_no += 1;
            let mut line: &[u8] = &self.line_buf;
            if line.last() == Some(&b'\n') {
                line = &line[..line.len() - 1];
            }
            if line.is_empty() {
                // Tolerate blank lines (e.g. a final newline written twice).
                continue;
            }
            return match format::decode_line(line) {
                Ok(edge) => Ok(Some(edge)),
                Err(msg) => Err(Error::parse(&*path, *line_no, msg)),
            };
        }
    }
}

impl EdgeFileIter {
    fn next_edge_binary(&mut self) -> Result<Option<Edge>> {
        use std::io::Read;
        loop {
            if self.current.is_none() && !self.advance_file()? {
                return Ok(None);
            }
            let Some((path, reader, record_no)) = self.current.as_mut() else {
                continue;
            };
            let mut rec = [0u8; 16];
            // Distinguish clean EOF from a torn record.
            match reader
                .read(&mut rec[..1])
                .map_err(|e| Error::io(&*path, e))?
            {
                0 => {
                    self.current = None;
                    continue;
                }
                _ => {
                    reader.read_exact(&mut rec[1..]).map_err(|e| {
                        Error::parse(&*path, *record_no + 1, format!("torn 16-byte record: {e}"))
                    })?;
                }
            }
            *record_no += 1;
            // Little-endian u then v: the low 8 bytes of the record are u.
            let x = u128::from_le_bytes(rec);
            return Ok(Some(Edge::new(x as u64, (x >> 64) as u64)));
        }
    }
}

impl Iterator for EdgeFileIter {
    type Item = Result<Edge>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_edge() {
            Ok(Some(e)) => Some(Ok(e)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::SortState;
    use crate::tempdir::TempDir;
    use crate::writer::write_edges;

    fn edges(n: u64) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i * 3 % 11, i)).collect()
    }

    #[test]
    fn roundtrip_through_files() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let es = edges(100);
        write_edges(td.path(), "edges", 4, &es, None, None, SortState::Unsorted).unwrap();
        let (m, got) = EdgeReader::read_dir_all(td.path()).unwrap();
        assert_eq!(m.edges, 100);
        assert_eq!(got, es);
    }

    #[test]
    fn roundtrip_empty_set() {
        let td = TempDir::new("ppbench-reader").unwrap();
        write_edges(td.path(), "edges", 3, &[], None, None, SortState::Unsorted).unwrap();
        let (m, got) = EdgeReader::read_dir_all(td.path()).unwrap();
        assert_eq!(m.edges, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn streaming_iterator_matches_read_all() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let es = edges(37);
        write_edges(td.path(), "edges", 2, &es, None, None, SortState::Unsorted).unwrap();
        let (_, iter) = EdgeReader::open_dir(td.path()).unwrap();
        let got: Vec<Edge> = iter.map(|r| r.unwrap()).collect();
        assert_eq!(got, es);
    }

    #[test]
    fn parse_error_reports_file_and_line() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let path = td.join("bad.tsv");
        std::fs::write(&path, "1\t2\n3\toops\n5\t6\n").unwrap();
        let mut iter = EdgeReader::open_files(vec![path.clone()]);
        assert_eq!(iter.next().unwrap().unwrap(), Edge::new(1, 2));
        let err = iter.next().unwrap().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.tsv"), "{msg}");
        assert!(msg.contains(":2"), "{msg}");
        // Iteration ends after an error.
        assert!(iter.next().is_none());
    }

    #[test]
    fn missing_file_is_an_error_item() {
        let mut iter = EdgeReader::open_files(vec![PathBuf::from("/definitely/not/here.tsv")]);
        assert!(iter.next().unwrap().is_err());
        assert!(iter.next().is_none());
    }

    #[test]
    fn tampered_file_fails_digest_check() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let es = edges(10);
        let m = write_edges(td.path(), "edges", 1, &es, None, None, SortState::Unsorted).unwrap();
        // Append an extra edge behind the manifest's back.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(td.join(&m.files[0].name))
            .unwrap();
        writeln!(f, "7\t7").unwrap();
        drop(f);
        let err = EdgeReader::read_dir_all(td.path()).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let path = td.join("padded.tsv");
        std::fs::write(&path, "1\t2\n\n3\t4\n").unwrap();
        let got: Vec<Edge> = EdgeReader::open_files(vec![path])
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![Edge::new(1, 2), Edge::new(3, 4)]);
    }

    #[test]
    fn file_without_trailing_newline_reads_fully() {
        let td = TempDir::new("ppbench-reader").unwrap();
        let path = td.join("trunc.tsv");
        std::fs::write(&path, "1\t2\n3\t4").unwrap();
        let got: Vec<Edge> = EdgeReader::open_files(vec![path])
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, vec![Edge::new(1, 2), Edge::new(3, 4)]);
    }
}
