//! `parse` is a hand-rolled parser fed untrusted text: on any input it
//! must return `Ok` or a typed `Err`, never panic. Fixed cases pin the
//! inputs that used to panic; the properties feed random bytes and
//! single-byte or single-token mutations of the checked-in kernels.

use gals_isa::{parse, AsmErrorKind};
use proptest::prelude::*;

const KERNELS: [&str; 3] = [
    include_str!("../../../examples/programs/gcc_like.gasm"),
    include_str!("../../../examples/programs/fpppp_like.gasm"),
    include_str!("../../../examples/programs/ijpeg_like.gasm"),
];

/// Tokens that stress the operand parsers: signs, radix prefixes,
/// overflow, multi-byte characters and malformed brackets.
const HOSTILE: [&str; 24] = [
    "é1",
    "r",
    "f",
    "r+1",
    "r32",
    "f-1",
    "--5",
    "-0x-8000000000000000",
    "--9223372036854775808",
    "-9223372036854775809",
    "9223372036854775808",
    "18446744073709551616",
    "0x",
    "-",
    "+",
    "+5",
    "0x+5",
    "[é]",
    "[",
    "(r1)",
    "é(r1)",
    "main+18446744073709551615",
    "main++1",
    ".entry",
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

/// Replaces one byte of a kernel (decoded lossily, as a file read would
/// be by a tool that tolerates bad UTF-8).
fn mutate_byte(g: &mut Gen) -> String {
    let mut bytes = KERNELS[g.below(KERNELS.len())].as_bytes().to_vec();
    let at = g.below(bytes.len());
    bytes[at] = g.below(256) as u8;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Replaces one token of a kernel with a hostile token, a token from
/// elsewhere in the kernels, or nothing.
fn mutate_token(g: &mut Gen) -> String {
    let text = KERNELS[g.below(KERNELS.len())];
    let spans = token_spans(text);
    let (s, e) = spans[g.below(spans.len())];
    let replacement = match g.below(3) {
        0 => HOSTILE[g.below(HOSTILE.len())],
        1 => {
            let donor = KERNELS[g.below(KERNELS.len())];
            let donor_spans = token_spans(donor);
            let (ds, de) = donor_spans[g.below(donor_spans.len())];
            &donor[ds..de]
        }
        _ => "",
    };
    format!("{}{}{}", &text[..s], replacement, &text[e..])
}

#[test]
fn operands_that_used_to_panic_are_typed_errors() {
    let cases = [
        ("li é1, 5", 4, true),
        ("li r1, --9223372036854775808", 8, false),
        ("li r1, -0x-8000000000000000", 8, false),
        ("li r1, --5", 8, false),
    ];
    for (inst, col, register) in cases {
        let text = format!(".entry main\nmain:\n{inst}\n    ret\n");
        let e = parse(&text).expect_err(inst);
        match e.kind {
            AsmErrorKind::BadRegister(_) => assert!(register, "{inst}: {e}"),
            AsmErrorKind::BadImmediate(_) => assert!(!register, "{inst}: {e}"),
            _ => panic!("{inst}: unexpected error {e}"),
        }
        assert_eq!((e.line, e.col), (3, col), "{inst}: {e}");
    }
}

#[test]
fn immediates_accept_the_full_i64_range_and_one_sign() {
    for (imm, ok) in [
        ("-9223372036854775808", true),
        ("9223372036854775807", true),
        ("-0x8000000000000000", true),
        ("-0", true),
        ("9223372036854775808", false),
        ("-9223372036854775809", false),
        ("+5", false),
        ("0x+5", false),
        ("-+5", false),
    ] {
        let text = format!(".entry main\nmain:\n    li r1, {imm}\n    ret\n");
        assert_eq!(parse(&text).is_ok(), ok, "li r1, {imm}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_kernels_never_panic(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let text = if g.below(2) == 0 { mutate_byte(&mut g) } else { mutate_token(&mut g) };
        let _ = parse(&text);
    }
}
