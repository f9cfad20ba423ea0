//! `SweepMatrix::from_json` is a hand-rolled JSON reader fed untrusted
//! files: on any input it must return `Ok` or an `Err` message, never
//! panic. The properties feed random bytes and single-byte or
//! single-token mutations of the two checked-in example matrices.

use gals_sweep::SweepMatrix;
use proptest::prelude::*;

const EXAMPLES: [&str; 2] = [
    include_str!("../../../examples/sweep_matrix.json"),
    include_str!("../../../examples/program_matrix.json"),
];

/// Tokens that stress the reader and the axis parsers: out-of-range and
/// non-finite numbers, bad escapes, unknown labels and stray structure.
const HOSTILE: [&str; 22] = [
    "1e999",
    "-1e999",
    "-1",
    "0.5",
    "9007199254740992",
    "18446744073709551616",
    "NaN",
    "null",
    "true",
    "\"uniform0.5x\"",
    "\"uniformNaNx\"",
    "\"uniform-1x\"",
    "\"pausible@99999999999999999999ps\"",
    "\"prog:\"",
    "\"prog:nope\"",
    "\"\\ud800\"",
    "\"\\u12\"",
    "\"é\"",
    "{",
    "}",
    "[",
    "]",
];

/// Tiny deterministic generator (the proptest stub draws the seed).
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Byte ranges of the whitespace- or comma-separated tokens of `text`.
fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        let sep = c.is_whitespace() || c == ',';
        match (start, sep) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    spans
}

/// Replaces one byte of an example (decoded lossily).
fn mutate_byte(g: &mut Gen) -> String {
    let mut bytes = EXAMPLES[g.below(EXAMPLES.len())].as_bytes().to_vec();
    let at = g.below(bytes.len());
    bytes[at] = g.below(256) as u8;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Replaces one token of an example with a hostile token, a token from
/// elsewhere in the examples, or nothing.
fn mutate_token(g: &mut Gen) -> String {
    let text = EXAMPLES[g.below(EXAMPLES.len())];
    let spans = token_spans(text);
    let (s, e) = spans[g.below(spans.len())];
    let replacement = match g.below(3) {
        0 => HOSTILE[g.below(HOSTILE.len())],
        1 => {
            let donor = EXAMPLES[g.below(EXAMPLES.len())];
            let donor_spans = token_spans(donor);
            let (ds, de) = donor_spans[g.below(donor_spans.len())];
            &donor[ds..de]
        }
        _ => "",
    };
    format!("{}{}{}", &text[..s], replacement, &text[e..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = SweepMatrix::from_json(&String::from_utf8_lossy(&bytes), 1_000);
    }

    #[test]
    fn mutated_examples_never_panic(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let text = if g.below(2) == 0 { mutate_byte(&mut g) } else { mutate_token(&mut g) };
        let _ = SweepMatrix::from_json(&text, 1_000);
    }
}
