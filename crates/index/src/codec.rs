//! The one byte codec: pages, index images, WAL frames, snapshots and wire
//! frames are all read through [`Reader`] and written through [`Writer`].
//!
//! Integers are little-endian and floats travel by bit pattern. The
//! layouts several formats share are defined here, once:
//!
//! ```text
//! sample      t:f64 x:f64 y:f64                                   24 B
//! samples     count:u32 sample{count}
//! leaf entry  traj:u64 seq:u32 sample(start) sample(end)          60 B
//! mbb         x_min y_min t_min x_max y_max t_max   (6 × f64)     48 B
//! ```
//!
//! The reader is *total*: every accessor returns a [`CodecError`] instead
//! of panicking, [`Reader::count`] checks an element count against the
//! bytes actually left before a caller allocates for it, and
//! [`Reader::finish`] rejects trailing bytes. Each format maps the error
//! onto its own typed error (`IndexError::CorruptNode` for pages,
//! `IndexError::Persist` for images, `WalError` for log frames and
//! snapshots, `WireError` for wire frames).
//!
//! The writer appends to a `Vec<u8>` and cannot fail; a collection too long
//! for its `u32` count writes `u32::MAX` and only that many elements
//! ([`Writer::put_count`]), so an encoding is always self-consistent.

use mst_trajectory::{Mbb, SamplePoint, Segment, TrajectoryId};

use crate::node::LeafEntry;

/// Bytes of one encoded [`SamplePoint`].
const SAMPLE_SIZE: usize = 3 * 8;
/// Bytes of one encoded [`LeafEntry`].
pub const LEAF_ENTRY_SIZE: usize = 8 + 4 + 2 * SAMPLE_SIZE;
/// Bytes of one encoded [`Mbb`].
pub(crate) const MBB_SIZE: usize = 6 * 8;

/// Why bytes failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end inside a field, or a count promises more elements
    /// than the bytes left can hold.
    Short,
    /// Bytes are left over after the last field.
    Trailing,
    /// A field holds a value its layout forbids.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Short => write!(f, "truncated"),
            CodecError::Trailing => write!(f, "trailing bytes"),
            CodecError::Invalid(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

/// Sequential checked reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next `n` bytes. A failed read consumes nothing.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (Some(head), Some(rest)) = (self.buf.get(..n), self.buf.get(n..)) else {
            return Err(CodecError::Short);
        };
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?.try_into().map_err(|_| CodecError::Short)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` by bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32` count of `elem_size`-byte elements and checks that
    /// the bytes left can hold them, so a hostile count fails here instead
    /// of driving an allocation.
    pub fn count(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.u32()?;
        self.fits(u64::from(n), elem_size)
    }

    /// [`Reader::count`] for a `u64` count field.
    pub fn count_u64(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.u64()?;
        self.fits(n, elem_size)
    }

    fn fits(&self, n: u64, elem_size: usize) -> Result<usize> {
        let n = usize::try_from(n).map_err(|_| CodecError::Short)?;
        match n.checked_mul(elem_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(CodecError::Short),
        }
    }

    /// Ends a message that must fill its bytes exactly.
    pub fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }

    /// Reads one `(t, x, y)` sample.
    #[inline]
    pub fn sample(&mut self) -> Result<SamplePoint> {
        let mut r = Reader::new(self.take(SAMPLE_SIZE)?);
        Ok(SamplePoint::new(r.f64()?, r.f64()?, r.f64()?))
    }

    /// Reads a count-prefixed sample list.
    pub fn samples(&mut self) -> Result<Vec<SamplePoint>> {
        let n = self.count(SAMPLE_SIZE)?;
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(self.sample()?);
        }
        Ok(points)
    }

    /// Reads one leaf entry; its segment must pass [`Segment::new`].
    #[inline]
    pub fn leaf_entry(&mut self) -> Result<LeafEntry> {
        // One length check for the whole entry; the field reads below
        // then index a slice of known length.
        let mut r = Reader::new(self.take(LEAF_ENTRY_SIZE)?);
        let traj = TrajectoryId(r.u64()?);
        let seq = r.u32()?;
        let segment = Segment::new(r.sample()?, r.sample()?)
            .map_err(|_| CodecError::Invalid("invalid segment"))?;
        Ok(LeafEntry { traj, seq, segment })
    }

    /// Reads one box; its corners must be finite and ordered.
    #[inline]
    pub fn mbb(&mut self) -> Result<Mbb> {
        let mut r = Reader::new(self.take(MBB_SIZE)?);
        let [x_min, y_min, t_min, x_max, y_max, t_max] =
            [r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?, r.f64()?];
        // False for NaN, for an infinite corner and for an inverted side.
        let side = |lo: f64, hi: f64| f64::NEG_INFINITY < lo && lo <= hi && hi < f64::INFINITY;
        if !(side(x_min, x_max) && side(y_min, y_max) && side(t_min, t_max)) {
            return Err(CodecError::Invalid("invalid MBB"));
        }
        Ok(Mbb::new(x_min, y_min, t_min, x_max, y_max, t_max))
    }
}

/// Appending writer over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u32` element count for a collection of `len` elements
    /// and returns how many elements the caller must then write: `len`,
    /// or `u32::MAX` for a longer collection.
    pub fn put_count(&mut self, len: usize) -> usize {
        let n = u32::try_from(len).unwrap_or(u32::MAX);
        self.put_u32(n);
        // A u32 always fits the usize of a target that addresses 4 KB pages.
        usize::try_from(n).unwrap_or(usize::MAX)
    }

    /// Appends one `(t, x, y)` sample.
    #[inline]
    pub fn put_sample(&mut self, p: SamplePoint) {
        self.put_f64(p.t);
        self.put_f64(p.x);
        self.put_f64(p.y);
    }

    /// Appends a count-prefixed sample list.
    pub fn put_samples(&mut self, points: &[SamplePoint]) {
        for p in points.iter().take(self.put_count(points.len())) {
            self.put_sample(*p);
        }
    }

    /// Appends one leaf entry.
    #[inline]
    pub fn put_leaf_entry(&mut self, e: &LeafEntry) {
        self.put_bytes(&leaf_entry_bytes(e));
    }

    /// Appends one box.
    #[inline]
    pub fn put_mbb(&mut self, m: &Mbb) {
        self.put_bytes(&mbb_bytes(m));
    }
}

/// One leaf entry's bytes, as [`Writer::put_leaf_entry`] appends them.
#[inline]
pub(crate) fn leaf_entry_bytes(e: &LeafEntry) -> [u8; LEAF_ENTRY_SIZE] {
    let (s, t) = (e.segment.start(), e.segment.end());
    let mut b = [0u8; LEAF_ENTRY_SIZE];
    b[..8].copy_from_slice(&e.traj.0.to_le_bytes());
    b[8..12].copy_from_slice(&e.seq.to_le_bytes());
    fill_f64s(&mut b[12..], [s.t, s.x, s.y, t.t, t.x, t.y]);
    b
}

/// One box's bytes, as [`Writer::put_mbb`] appends them; compared whole,
/// they tell bit-equal boxes (`-0.0` and `+0.0` differ, as on a page).
#[inline]
pub(crate) fn mbb_bytes(m: &Mbb) -> [u8; MBB_SIZE] {
    let mut b = [0u8; MBB_SIZE];
    fill_f64s(
        &mut b,
        [m.x_min, m.y_min, m.t_min, m.x_max, m.y_max, m.t_max],
    );
    b
}

/// Packs `vs` into `out`. The page encoder appends a whole entry or box
/// at once: one capacity check instead of one per field.
#[inline]
fn fill_f64s(out: &mut [u8], vs: [f64; 6]) {
    for (chunk, v) in out.chunks_exact_mut(8).zip(vs) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut w = Writer::default();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        w.put_u64(0x0123456789ABCDEF);
        w.put_f64(-1234.5678e12);
        w.put_f64(f64::INFINITY);
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x1234));
        assert_eq!(r.u32(), Ok(0xDEADBEEF));
        assert_eq!(r.u64(), Ok(0x0123456789ABCDEF));
        assert_eq!(r.f64(), Ok(-1234.5678e12));
        assert_eq!(r.f64(), Ok(f64::INFINITY));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn f64_bit_exact_including_negative_zero() {
        let mut w = Writer::default();
        w.put_f64(-0.0);
        let buf = w.into_bytes();
        let v = Reader::new(&buf).f64().unwrap();
        assert_eq!(v.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn truncated_buffers_return_short_not_panic() {
        // One byte short of each width.
        let buf = [1u8, 2, 3, 4, 5, 6, 7];
        assert_eq!(Reader::new(&buf[..0]).u8(), Err(CodecError::Short));
        assert_eq!(Reader::new(&buf[..1]).u16(), Err(CodecError::Short));
        assert_eq!(Reader::new(&buf[..3]).u32(), Err(CodecError::Short));
        assert_eq!(Reader::new(&buf[..7]).u64(), Err(CodecError::Short));
        assert_eq!(Reader::new(&buf[..7]).f64(), Err(CodecError::Short));
        // A failed read consumes nothing and leaves the reader usable.
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Ok(u32::from_le_bytes([1, 2, 3, 4])));
        assert_eq!(r.u64(), Err(CodecError::Short));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Ok(u16::from_le_bytes([5, 6])));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u8(), Err(CodecError::Short));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn remaining_tracks_consumption() {
        let buf = [0u8; 12];
        let mut r = Reader::new(&buf);
        assert_eq!(r.remaining(), 12);
        r.u64().unwrap();
        assert_eq!(r.remaining(), 4);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let mut w = Writer::default();
        w.put_u32(3);
        w.put_bytes(&[0; 12]);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).count(4), Ok(3));
        assert_eq!(Reader::new(&buf).count(5), Err(CodecError::Short));
        let mut w = Writer::default();
        w.put_u32(u32::MAX);
        w.put_u64(u64::MAX);
        let buf = w.into_bytes();
        assert_eq!(Reader::new(&buf).count(usize::MAX), Err(CodecError::Short));
        let mut r = Reader::new(&buf[4..]);
        assert_eq!(r.count_u64(1), Err(CodecError::Short));
        // Trailing bytes fail `finish`.
        assert_eq!(Reader::new(&buf).finish(), Err(CodecError::Trailing));
    }

    #[test]
    fn shared_layouts_roundtrip_and_validate() {
        let points = [
            SamplePoint::new(0.0, 1.0, 2.0),
            SamplePoint::new(1.0, -0.0, 3.5),
        ];
        let entry = LeafEntry {
            traj: TrajectoryId(7),
            seq: 3,
            segment: Segment::new(points[0], points[1]).unwrap(),
        };
        let mbb = Mbb::new(-1.0, 0.0, 2.0, 3.0, 4.0, 5.0);
        let mut w = Writer::default();
        w.put_samples(&points);
        w.put_leaf_entry(&entry);
        w.put_mbb(&mbb);
        let buf = w.into_bytes();
        assert_eq!(buf.len(), 4 + 2 * SAMPLE_SIZE + LEAF_ENTRY_SIZE + MBB_SIZE);
        let mut r = Reader::new(&buf);
        assert_eq!(r.samples().unwrap(), points);
        assert_eq!(r.leaf_entry(), Ok(entry));
        assert_eq!(r.mbb(), Ok(mbb));
        assert_eq!(r.finish(), Ok(()));

        // An entry whose time runs backwards, and inverted or non-finite boxes.
        let mut w = Writer::default();
        w.put_u64(1);
        w.put_u32(0);
        w.put_sample(points[1]);
        w.put_sample(points[0]);
        let buf = w.into_bytes();
        assert_eq!(
            Reader::new(&buf).leaf_entry(),
            Err(CodecError::Invalid("invalid segment"))
        );
        for bad in [
            [1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, f64::NAN, 1.0, 1.0, 1.0],
        ] {
            let mut w = Writer::default();
            bad.iter().for_each(|v| w.put_f64(*v));
            let buf = w.into_bytes();
            assert_eq!(
                Reader::new(&buf).mbb(),
                Err(CodecError::Invalid("invalid MBB"))
            );
        }
    }

    #[test]
    fn oversized_collections_write_a_consistent_prefix() {
        let mut w = Writer::default();
        assert_eq!(w.put_count(5), 5);
        assert_eq!(w.as_bytes(), &5u32.to_le_bytes());
        if let Ok(huge) = usize::try_from(u64::from(u32::MAX) + 1) {
            let mut w = Writer::default();
            assert_eq!(w.put_count(huge), usize::try_from(u32::MAX).unwrap());
        }
    }
}
