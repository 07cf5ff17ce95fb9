//! Offline shim for the `bytes` API subset used by this workspace.
//!
//! `Bytes` is a window onto a shared owner of the bytes (cheap clones,
//! zero-copy `slice`/`split_*`). Like the real crate, it takes ownership of
//! a `Vec<u8>` (`From<Vec<u8>>`, `BytesMut::freeze`) or any other owner
//! (`from_owner`) without copying the bytes. `BytesMut` is a growable
//! buffer. Only the surface the workspace uses is provided; semantics match
//! the real crate for it.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable, immutable, contiguous byte slice.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<dyn AsRef<[u8]> + Send + Sync>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::from_static(&[])
    }
}

impl Bytes {
    pub fn new() -> Bytes {
        Bytes::default()
    }

    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from_owner(bytes)
    }

    /// Wraps `owner`'s bytes without copying them; the owner is dropped
    /// with the last `Bytes` that shares it. (The real crate asks only for
    /// `Send`; this shim keeps `Bytes: Sync` by also asking for `Sync`.)
    pub fn from_owner<T>(owner: T) -> Bytes
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let end = owner.as_ref().len();
        Bytes { data: Arc::new(owner), start: 0, end }
    }

    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    fn resolve(&self, range: impl RangeBounds<usize>) -> (usize, usize) {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "range out of bounds");
        (lo, hi)
    }

    /// Zero-copy sub-slice sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (lo, hi) = self.resolve(range);
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Splits off and returns `self[..at]`, leaving `self` as `self[at..]`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Splits off and returns `self[at..]`, leaving `self` as `self[..at]`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &(*self.data).as_ref()[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_owner(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Bytes {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Bytes {
        Bytes::from_static(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Bytes {
        v.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_ref() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl std::iter::FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// Growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Read cursor for the `Buf` impl.
    cursor: usize,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut { data: Vec::with_capacity(capacity), cursor: 0 }
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.cursor
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Converts into `Bytes`, keeping the allocation (no copy).
    pub fn freeze(self) -> Bytes {
        let mut frozen = Bytes::from(self.data);
        frozen.advance(self.cursor);
        frozen
    }

    /// Splits off and returns the first `at` readable bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.data[self.cursor..self.cursor + at].to_vec();
        self.data.drain(..self.cursor + at);
        self.cursor = 0;
        BytesMut { data: head, cursor: 0 }
    }

    /// Splits off and returns everything after the first `at` readable bytes.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_off out of bounds");
        let tail = self.data.split_off(self.cursor + at);
        BytesMut { data: tail, cursor: 0 }
    }

    /// Takes the full readable contents, leaving the buffer empty.
    pub fn split(&mut self) -> BytesMut {
        let at = self.len();
        self.split_to(at)
    }

    /// Resizes the readable contents to `new_len`, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(self.cursor + new_len, value);
    }

    pub fn clear(&mut self) {
        self.data.clear();
        self.cursor = 0;
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.cursor..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Bytes::from(self.to_vec()).fmt(f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { data: v, cursor: 0 }
    }
}

impl std::iter::Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

/// Read-side cursor trait (`bytes::Buf` subset).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let mut v = vec![0u8; len];
        self.copy_to_slice(&mut v);
        Bytes::from(v)
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.cursor += cnt;
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write-side trait (`bytes::BufMut` subset).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }
    fn put_u16_le(&mut self, n: u16) {
        self.put_slice(&n.to_le_bytes());
    }
    fn put_u32_le(&mut self, n: u32) {
        self.put_slice(&n.to_le_bytes());
    }
    fn put_u64_le(&mut self, n: u64) {
        self.put_slice(&n.to_le_bytes());
    }
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(0xdead_beef);
        m.put_u8(7);
        m.put_slice(b"xyz");
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 8);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.copy_to_bytes(3), Bytes::from_static(b"xyz"));
    }

    #[test]
    fn split_and_slice_share_storage() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[1, 2]);
        assert_eq!(b.as_ref(), &[3, 4, 5]);
        assert_eq!(b.slice(1..).as_ref(), &[4, 5]);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr);

        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"header+body");
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr);

        let mut m = BytesMut::from(b"header+body".to_vec());
        let ptr = m.as_ptr();
        m.advance(7);
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), ptr.wrapping_add(7));
        assert_eq!(frozen, b"body"[..]);

        struct Shared(Arc<Vec<u8>>);
        impl AsRef<[u8]> for Shared {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        let owner = Arc::new(vec![9u8; 32]);
        let ptr = owner.as_ptr();
        let shared = Bytes::from_owner(Shared(Arc::clone(&owner)));
        assert_eq!(shared.as_ptr(), ptr);
        drop(owner);
        assert_eq!(shared, vec![9u8; 32]); // the `Bytes` keeps the owner alive
    }

    #[test]
    fn slice_and_split_share_the_original_allocation() {
        let v: Vec<u8> = (0..10).collect();
        let ptr = v.as_ptr();
        let mut b = Bytes::from(v);
        assert_eq!(b.slice(3..7).as_ptr(), ptr.wrapping_add(3));
        let head = b.split_to(2);
        assert_eq!(head.as_ptr(), ptr);
        assert_eq!(b.as_ptr(), ptr.wrapping_add(2));
        let tail = b.split_off(5);
        assert_eq!(tail.as_ptr(), ptr.wrapping_add(7));
        assert_eq!((head.len(), b.len(), tail.len()), (2, 5, 3));
        assert_eq!(tail, [7u8, 8, 9]);
    }
}
