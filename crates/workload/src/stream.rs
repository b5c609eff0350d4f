//! Streaming row sources: out-of-core access to characteristic-vector
//! matrices.
//!
//! [`RowSource`] is the strip-granular reading contract the SOM's
//! bounded-memory trainer consumes (`hiermeans_som::SomBuilder::
//! train_stream`). This module provides the two backends the scale studies
//! need:
//!
//! * [`SyntheticRowSource`] — generates a planted Gaussian mixture
//!   ([`crate::synthetic`]) strip by strip, bitwise identical to the
//!   resident [`crate::synthetic::gaussian_mixture`] matrix, with only
//!   `O(k·dim)` state. A corpus three orders of magnitude past resident
//!   memory costs nothing to "store".
//! * [`CharVecFile`] — a little-endian binary matrix file with a paging
//!   reader, for characteristic-vector corpora that exist on disk. The
//!   reader holds one strip of bytes at a time, never the matrix.
//!
//! Both backends enforce the [`RowSource`] access pattern (ascending,
//! gapless strips; a `start == 0` read rewinds) rather than silently
//! returning wrong rows: the synthetic stream's Box–Muller spare and the
//! file reader's cursor both make random access a correctness hazard.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use hiermeans_linalg::rows::{RowSource, RowSourceError};
use hiermeans_linalg::Matrix;

use crate::rng::SimRng;
use crate::synthetic::{self, MixtureSpec};
use crate::WorkloadError;

/// A planted Gaussian mixture generated strip by strip.
///
/// Bitwise identical to materializing [`synthetic::gaussian_mixture`] with
/// the same [`MixtureSpec`] and reading its rows in order: the centers come
/// from the same `mixture/centers` sub-stream and the points from the same
/// row-sequential `mixture/points` stream. Rewinding (a `load_rows` at
/// `start == 0`) re-derives the point stream, so every pass over the data
/// sees the same bits.
#[derive(Debug)]
pub struct SyntheticRowSource {
    spec: MixtureSpec,
    root: SimRng,
    centers: Matrix,
    point_rng: SimRng,
    next_row: usize,
}

impl SyntheticRowSource {
    /// Validates `spec` and draws its planted centers.
    ///
    /// # Errors
    ///
    /// Rejects the same parameters as [`synthetic::gaussian_mixture`].
    pub fn new(spec: MixtureSpec) -> Result<Self, WorkloadError> {
        synthetic::validate(&spec)?;
        let root = SimRng::new(spec.seed);
        let centers = synthetic::planted_centers(&spec, &root);
        let point_rng = root.derive("mixture/points");
        Ok(SyntheticRowSource {
            spec,
            root,
            centers,
            point_rng,
            next_row: 0,
        })
    }

    /// Ground-truth cluster of `row` (round-robin, exactly like the
    /// resident draw's `labels`).
    #[must_use]
    pub fn label(&self, row: usize) -> usize {
        row % self.spec.k
    }
}

impl RowSource for SyntheticRowSource {
    fn nrows(&self) -> usize {
        self.spec.n
    }

    fn ncols(&self) -> usize {
        self.spec.dim
    }

    fn load_rows(
        &mut self,
        start: usize,
        count: usize,
        out: &mut [f64],
    ) -> Result<(), RowSourceError> {
        let dim = self.spec.dim;
        check_request(start, count, self.spec.n, dim, out.len())?;
        if start == 0 {
            self.point_rng = self.root.derive("mixture/points");
            self.next_row = 0;
        }
        if start != self.next_row {
            return Err(RowSourceError::new(format!(
                "non-sequential read at row {start}, expected row {}",
                self.next_row
            )));
        }
        for (j, row_out) in out[..count * dim].chunks_exact_mut(dim).enumerate() {
            let cluster = (start + j) % self.spec.k;
            synthetic::fill_row(
                &self.centers,
                self.spec.noise,
                cluster,
                &mut self.point_rng,
                row_out,
            );
        }
        self.next_row = start + count;
        Ok(())
    }
}

/// Magic bytes opening a characteristic-vector file.
const MAGIC: &[u8; 8] = b"HMCVEC1\0";
/// Header length: magic, then `nrows` and `ncols` as little-endian `u64`.
const HEADER_LEN: u64 = 8 + 8 + 8;

/// A characteristic-vector matrix on disk, read one strip at a time.
///
/// Format: the 8-byte `MAGIC` tag, `nrows: u64 LE`, `ncols: u64 LE`, then
/// `nrows · ncols` row-major `f64 LE` values. Writers:
/// [`CharVecFile::write_matrix`] for a resident matrix,
/// [`CharVecFile::copy_from`] to spool any other [`RowSource`] to disk
/// without materializing it.
#[derive(Debug)]
pub struct CharVecFile {
    reader: BufReader<File>,
    path: PathBuf,
    nrows: usize,
    ncols: usize,
    next_row: usize,
    /// Reusable strip byte buffer, so steady-state reads do not allocate.
    bytes: Vec<u8>,
}

impl CharVecFile {
    /// Opens an existing characteristic-vector file and checks its header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a bad magic, or a payload shorter than the
    /// header promises.
    pub fn open(path: &Path) -> Result<Self, RowSourceError> {
        let file = File::open(path).map_err(|e| file_err(path, "open", &e))?;
        let expected_payload = |nrows: u64, ncols: u64| nrows.checked_mul(ncols)?.checked_mul(8);
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; 8];
        reader
            .read_exact(&mut magic)
            .map_err(|e| file_err(path, "read header of", &e))?;
        if &magic != MAGIC {
            return Err(RowSourceError::new(format!(
                "{} is not a characteristic-vector file (bad magic)",
                path.display()
            )));
        }
        let mut word = [0u8; 8];
        reader
            .read_exact(&mut word)
            .map_err(|e| file_err(path, "read header of", &e))?;
        let nrows = u64::from_le_bytes(word);
        reader
            .read_exact(&mut word)
            .map_err(|e| file_err(path, "read header of", &e))?;
        let ncols = u64::from_le_bytes(word);
        let len = reader
            .get_ref()
            .metadata()
            .map_err(|e| file_err(path, "stat", &e))?
            .len();
        let payload = expected_payload(nrows, ncols).ok_or_else(|| {
            RowSourceError::new(format!(
                "{}: header claims an impossible {nrows}x{ncols} matrix",
                path.display()
            ))
        })?;
        if len < HEADER_LEN + payload {
            return Err(RowSourceError::new(format!(
                "{}: truncated — header claims {nrows}x{ncols} but the file holds {} bytes",
                path.display(),
                len
            )));
        }
        Ok(CharVecFile {
            reader,
            path: path.to_path_buf(),
            nrows: nrows as usize,
            ncols: ncols as usize,
            next_row: 0,
            bytes: Vec::new(),
        })
    }

    /// Writes a resident matrix as a characteristic-vector file.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn write_matrix(path: &Path, m: &Matrix) -> Result<(), RowSourceError> {
        let mut w = header_writer(path, m.nrows(), m.ncols())?;
        for r in 0..m.nrows() {
            write_row(&mut w, path, m.row(r))?;
        }
        w.flush().map_err(|e| file_err(path, "flush", &e))
    }

    /// Spools any row source to disk strip by strip — the way a corpus too
    /// large to materialize gets a file backend. Reads `source` from row 0.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors and propagates source failures.
    pub fn copy_from(path: &Path, source: &mut dyn RowSource) -> Result<(), RowSourceError> {
        let (n, dim) = (source.nrows(), source.ncols());
        let strip_rows = 4096.min(n.max(1));
        let mut strip = vec![0.0f64; strip_rows * dim];
        let mut w = header_writer(path, n, dim)?;
        let mut start = 0;
        while start < n {
            let count = strip_rows.min(n - start);
            source.load_rows(start, count, &mut strip[..count * dim])?;
            for row in strip[..count * dim].chunks_exact(dim) {
                write_row(&mut w, path, row)?;
            }
            start += count;
        }
        w.flush().map_err(|e| file_err(path, "flush", &e))
    }
}

impl RowSource for CharVecFile {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn load_rows(
        &mut self,
        start: usize,
        count: usize,
        out: &mut [f64],
    ) -> Result<(), RowSourceError> {
        check_request(start, count, self.nrows, self.ncols, out.len())?;
        if start == 0 {
            self.reader
                .seek(SeekFrom::Start(HEADER_LEN))
                .map_err(|e| file_err(&self.path, "rewind", &e))?;
            self.next_row = 0;
        }
        if start != self.next_row {
            return Err(RowSourceError::new(format!(
                "non-sequential read at row {start}, expected row {}",
                self.next_row
            )));
        }
        let byte_len = count * self.ncols * 8;
        self.bytes.resize(byte_len, 0);
        self.reader
            .read_exact(&mut self.bytes)
            .map_err(|e| file_err(&self.path, "read strip from", &e))?;
        let mut word = [0u8; 8];
        for (chunk, v) in self.bytes.chunks_exact(8).zip(out.iter_mut()) {
            word.copy_from_slice(chunk);
            *v = f64::from_le_bytes(word);
        }
        self.next_row = start + count;
        Ok(())
    }
}

/// Shared strip-request validation for every backend.
fn check_request(
    start: usize,
    count: usize,
    nrows: usize,
    ncols: usize,
    out_len: usize,
) -> Result<(), RowSourceError> {
    let end = start
        .checked_add(count)
        .ok_or_else(|| RowSourceError::new(format!("row range {start} + {count} overflows")))?;
    if end > nrows {
        return Err(RowSourceError::new(format!(
            "rows {start}..{end} out of bounds for {nrows} rows"
        )));
    }
    if out_len < count * ncols {
        return Err(RowSourceError::new(format!(
            "strip buffer holds {out_len} values, need {}",
            count * ncols
        )));
    }
    Ok(())
}

fn header_writer(
    path: &Path,
    nrows: usize,
    ncols: usize,
) -> Result<BufWriter<File>, RowSourceError> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| file_err(path, "create", &e))?);
    w.write_all(MAGIC)
        .and_then(|()| w.write_all(&(nrows as u64).to_le_bytes()))
        .and_then(|()| w.write_all(&(ncols as u64).to_le_bytes()))
        .map_err(|e| file_err(path, "write header of", &e))?;
    Ok(w)
}

fn write_row(w: &mut BufWriter<File>, path: &Path, row: &[f64]) -> Result<(), RowSourceError> {
    for &v in row {
        w.write_all(&v.to_le_bytes())
            .map_err(|e| file_err(path, "write", &e))?;
    }
    Ok(())
}

fn file_err(path: &Path, action: &str, e: &std::io::Error) -> RowSourceError {
    RowSourceError::new(format!("failed to {action} {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::gaussian_mixture;

    fn spec() -> MixtureSpec {
        MixtureSpec {
            n: 100,
            dim: 5,
            k: 3,
            spread: 100.0,
            noise: 1.0,
            seed: 17,
        }
    }

    fn read_all(source: &mut dyn RowSource, strip_rows: usize) -> Vec<f64> {
        let (n, dim) = (source.nrows(), source.ncols());
        let mut out = vec![0.0f64; n * dim];
        let mut start = 0;
        while start < n {
            let count = strip_rows.min(n - start);
            source
                .load_rows(start, count, &mut out[start * dim..(start + count) * dim])
                .unwrap();
            start += count;
        }
        out
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hiermeans_stream_{}_{name}", std::process::id()))
    }

    #[test]
    fn synthetic_stream_matches_resident_bitwise() {
        let resident = gaussian_mixture(&spec()).unwrap();
        let mut source = SyntheticRowSource::new(spec()).unwrap();
        // An odd strip size that never divides n exactly, so the Box–Muller
        // spare must survive strip boundaries.
        let streamed = read_all(&mut source, 7);
        for r in 0..spec().n {
            assert_eq!(
                &streamed[r * spec().dim..(r + 1) * spec().dim],
                resident.points.row(r),
                "row {r}"
            );
            assert_eq!(source.label(r), resident.labels[r]);
        }
        // A second full pass (rewind at start == 0) sees the same bits.
        assert_eq!(read_all(&mut source, 13), streamed);
    }

    #[test]
    fn synthetic_stream_rejects_random_access() {
        let mut source = SyntheticRowSource::new(spec()).unwrap();
        let mut buf = vec![0.0f64; 5 * spec().dim];
        source.load_rows(0, 5, &mut buf).unwrap();
        let e = source.load_rows(50, 5, &mut buf).unwrap_err();
        assert!(e.detail.contains("non-sequential"), "{e}");
        // Out-of-bounds and short buffers are rejected too.
        assert!(source.load_rows(99, 2, &mut buf).is_err());
        assert!(source.load_rows(5, 5, &mut buf[..spec().dim]).is_err());
    }

    #[test]
    fn charvec_file_roundtrips_a_matrix_bitwise() {
        let resident = gaussian_mixture(&spec()).unwrap();
        let path = temp_path("roundtrip.bin");
        CharVecFile::write_matrix(&path, &resident.points).unwrap();
        let mut file = CharVecFile::open(&path).unwrap();
        assert_eq!(file.nrows(), spec().n);
        assert_eq!(file.ncols(), spec().dim);
        let streamed = read_all(&mut file, 9);
        for r in 0..spec().n {
            assert_eq!(
                &streamed[r * spec().dim..(r + 1) * spec().dim],
                resident.points.row(r),
                "row {r}"
            );
        }
        // Rewind and re-read.
        assert_eq!(read_all(&mut file, 100), streamed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn charvec_copy_from_spools_a_source() {
        let resident = gaussian_mixture(&spec()).unwrap();
        let path = temp_path("spooled.bin");
        let mut source = SyntheticRowSource::new(spec()).unwrap();
        CharVecFile::copy_from(&path, &mut source).unwrap();
        let mut file = CharVecFile::open(&path).unwrap();
        let streamed = read_all(&mut file, 11);
        assert_eq!(&streamed[..spec().dim], resident.points.row(0));
        let last = spec().n - 1;
        assert_eq!(&streamed[last * spec().dim..], resident.points.row(last));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn charvec_rejects_bad_headers() {
        let path = temp_path("bad_magic.bin");
        std::fs::write(&path, b"NOTMAGIC\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0").unwrap();
        let e = CharVecFile::open(&path).unwrap_err();
        assert!(e.detail.contains("bad magic"), "{e}");
        std::fs::remove_file(&path).unwrap();

        // A header promising more rows than the file holds is truncated.
        let path = temp_path("truncated.bin");
        let resident = gaussian_mixture(&spec()).unwrap();
        CharVecFile::write_matrix(&path, &resident.points).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        let e = CharVecFile::open(&path).unwrap_err();
        assert!(e.detail.contains("truncated"), "{e}");
        std::fs::remove_file(&path).unwrap();
    }
}
