//! Wire-format properties: every `Tag` × scalar code round-trips through
//! the shared frame codec — including empty messages and empty panels —
//! and the physical frame size always equals the modeled `Message::bytes`.

use h2_dist::wire::{
    self, data_frame, decode_message, FrameHeader, FrameKind, ALL_TAGS, FRAME_HEADER_BYTES,
};
use h2_dist::{Message, Panel};
use h2_linalg::Scalar;
use h2_points::gen::cases;

const CASES: u64 = 48;

/// Builds a deterministic message from seeds: `npanels` panels whose
/// lengths cycle through {0, 1, …} so empty panels appear routinely.
fn msg_from_seeds<A: Scalar>(npanels: usize, len_seed: usize, val_seed: u64) -> Message<A> {
    let panels = (0..npanels)
        .map(|k| {
            let len = (len_seed + 3 * k) % 7; // 0..6, hits 0 often
            Panel {
                node: val_seed as usize + k,
                data: (0..len)
                    .map(|i| A::from_f64(((val_seed + i as u64) as f64 * 0.731).sin()))
                    .collect(),
            }
        })
        .collect();
    Message::new(panels)
}

/// Frame → header decode → payload decode must reproduce the message and
/// match the byte model, for one scalar type.
fn roundtrip_one<A: Scalar>(tag: h2_dist::Tag, msg: &Message<A>) {
    let frame = data_frame(2, 5, tag, msg);
    assert_eq!(frame.len() as u64, msg.bytes(), "frame size model");
    let h = FrameHeader::decode(&frame[..FRAME_HEADER_BYTES]).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(h.kind, FrameKind::Data);
    assert_eq!(wire::tag_from_code(h.tag), Some(tag));
    assert_eq!((h.src, h.dst), (2, 5));
    assert_eq!(h.scalar, A::CODE);
    assert_eq!(h.panels as usize, msg.panels.len());
    assert_eq!(h.payload_len as usize, frame.len() - FRAME_HEADER_BYTES);
    let back = decode_message::<A>(h.scalar, h.panels, &frame[FRAME_HEADER_BYTES..])
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(&back, msg);
}

/// Random (tag, panel count, lengths, values) round-trip bit-exactly
/// for both scalar codes through the same frame bytes layout.
#[test]
fn every_tag_and_scalar_round_trips() {
    cases(CASES, |r| {
        let tag = ALL_TAGS[r.below(7)];
        let npanels = r.below(5);
        let len_seed = r.below(9);
        let val_seed = r.below(1_000) as u64;
        roundtrip_one::<f64>(tag, &msg_from_seeds(npanels, len_seed, val_seed));
        roundtrip_one::<f32>(tag, &msg_from_seeds(npanels, len_seed, val_seed));
    });
}

/// A truncated payload is a typed decode error, never a panic, at any
/// cut point.
#[test]
fn truncated_payloads_error_cleanly() {
    cases(CASES, |r| {
        let cut_seed = r.below(10_000);
        let val_seed = r.below(1_000) as u64;
        let msg: Message<f64> = msg_from_seeds(4, 5, val_seed);
        let frame = data_frame(0, 1, h2_dist::Tag::HaloQ, &msg);
        let payload = &frame[FRAME_HEADER_BYTES..];
        if !payload.is_empty() {
            let cut = cut_seed % payload.len();
            assert!(decode_message::<f64>(8, 4, &payload[..cut]).is_err());
        }
    });
}

/// Exhaustive floor under the property test: every `Tag` × scalar code
/// with a zero-panel message, an empty-panel message, and a mixed one.
#[test]
fn all_tags_scalars_and_empty_shapes_round_trip() {
    for tag in ALL_TAGS {
        for msg in [
            Message::<f64>::default(),
            Message::new(vec![Panel {
                node: 7,
                data: Vec::new(),
            }]),
            Message::new(vec![
                Panel {
                    node: 1,
                    data: vec![1.5, -2.0],
                },
                Panel {
                    node: 2,
                    data: Vec::new(),
                },
            ]),
        ] {
            roundtrip_one::<f64>(tag, &msg);
        }
        for msg in [
            Message::<f32>::default(),
            Message::new(vec![Panel {
                node: 0,
                data: Vec::new(),
            }]),
            Message::new(vec![Panel {
                node: 3,
                data: vec![0.25f32; 5],
            }]),
        ] {
            roundtrip_one::<f32>(tag, &msg);
        }
    }
}
