//! The run codec against its reference.
//!
//! `Vec<T>` and `String` move their elements through [`Wire::encode_run`] /
//! [`Wire::decode_run`]; `u8` and `i8` override those with one copy.  The
//! provided per-element loops are the reference: [`Each`] wraps a value and
//! forwards only `encode`/`decode`, so a `Vec<Each<T>>` is framed by the
//! loops while a `Vec<T>` takes whatever `T` overrides.  Both must write the
//! same bytes and read every buffer — whole, truncated or corrupt — to the
//! same result, and a length read off the wire must not be believed before
//! the bytes behind it are seen to exist.

use madeleine::message::{PayloadReader, PayloadWriter};
use madeleine::Wire;
use testkit::alloc::{largest_alloc_in, Watching};
use testkit::{cases, StdRng};

#[global_allocator]
static ALLOC: Watching = Watching;

/// A value framed by the provided (per-element) run methods only.
#[derive(Debug, Clone, PartialEq)]
struct Each<T>(T);

impl<T: Wire> Wire for Each<T> {
    fn encode(&self, w: &mut PayloadWriter) {
        self.0.encode(w);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        T::decode(r).map(Each)
    }
}

fn each<T: Clone>(v: &[T]) -> Vec<Each<T>> {
    v.iter().cloned().map(Each).collect()
}

/// The value under test: every kind of run, nested in tuples.
type Bulk = (u64, Vec<u8>, (String, Vec<i8>), Vec<u32>, Option<Vec<u8>>);
/// The same shape with every run framed element by element; the string
/// travels as the bytes it is.
type Reference = (
    u64,
    Vec<Each<u8>>,
    (Vec<Each<u8>>, Vec<Each<i8>>),
    Vec<Each<u32>>,
    Option<Vec<Each<u8>>>,
);

fn reference_of(v: &Bulk) -> Reference {
    let (id, bytes, (text, signed), words, maybe) = v;
    (
        *id,
        each(bytes),
        (each(text.as_bytes()), each(signed)),
        each(words),
        maybe.as_deref().map(each),
    )
}

fn random_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let n = rng.random_range(0..=max);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

fn random_value(rng: &mut StdRng) -> Bulk {
    let text: String = (0..rng.random_range(0..40usize))
        .map(|_| char::from_u32(rng.random_range(0x20..0x2FFu32)).unwrap_or('?'))
        .collect();
    let signed = random_bytes(rng, 64).into_iter().map(|b| b as i8).collect();
    let words = (0..rng.random_range(0..50usize))
        .map(|_| rng.next_u64() as u32)
        .collect();
    let maybe = rng.random_bool(0.5).then(|| random_bytes(rng, 16));
    (
        rng.next_u64(),
        random_bytes(rng, 3000),
        (text, signed),
        words,
        maybe,
    )
}

#[test]
fn bulk_and_per_element_codecs_agree() {
    cases(200, |rng| {
        let value = random_value(rng);
        let reference = reference_of(&value);
        let bytes = value.encode_vec();
        assert_eq!(bytes, reference.encode_vec(), "same bytes on the wire");
        assert_eq!(bytes.len(), value.size_hint(), "the hint is exact here");
        assert_eq!(Bulk::decode_vec(&bytes), Some(value));
        assert_eq!(Reference::decode_vec(&bytes), Some(reference));
    });
}

#[test]
fn damaged_buffers_decode_alike_and_allocate_within_their_length() {
    cases(300, |rng| {
        let mut bytes = random_value(rng).encode_vec();
        if rng.random_bool(0.5) {
            bytes.truncate(rng.random_range(0..bytes.len()));
        } else {
            // Garbage somewhere — often enough in a length field, which
            // then promises up to 4 GiB of elements.
            let at = rng.random_range(0..bytes.len());
            let junk = rng.next_u64().to_le_bytes();
            for (b, j) in bytes[at..].iter_mut().zip(junk) {
                *b = j;
            }
        }
        let (bulk, largest) = largest_alloc_in(|| Bulk::decode_vec(&bytes));
        assert!(
            largest <= bytes.len(),
            "one allocation of {largest} B decoding a {} B buffer",
            bytes.len()
        );
        // The reference carries the string as bytes; a `String` is also
        // refused for not being UTF-8.
        let reference = Reference::decode_vec(&bytes).filter(|(_, _, (text, _), _, _)| {
            let text: Vec<u8> = text.iter().map(|b| b.0).collect();
            std::str::from_utf8(&text).is_ok()
        });
        assert_eq!(bulk.as_ref().map(reference_of), reference);
    });
}

#[test]
fn a_lying_length_prefix_is_refused_before_it_is_served() {
    let mut w = PayloadWriter::with_capacity(8);
    w.u32(u32::MAX).bytes(b"abcd");
    let buf = w.finish_vec();
    for decode in [
        |b: &[u8]| Vec::<u8>::decode_vec(b).is_none(),
        |b: &[u8]| Vec::<i8>::decode_vec(b).is_none(),
        |b: &[u8]| String::decode_vec(b).is_none(),
        |b: &[u8]| Vec::<u32>::decode_vec(b).is_none(),
        |b: &[u8]| Vec::<Each<u8>>::decode_vec(b).is_none(),
    ] {
        let (refused, largest) = largest_alloc_in(|| decode(&buf));
        assert!(refused);
        assert!(
            largest <= buf.len(),
            "allocated {largest} B for 8 B of input"
        );
    }
    // The run methods are public: a count no buffer could hold is an
    // underrun like any other, not an overflow.
    let mut r = PayloadReader::new(&buf);
    assert_eq!(u8::decode_run(&mut r, usize::MAX), None);
    assert_eq!(u64::decode_run(&mut r, usize::MAX), None);
}
