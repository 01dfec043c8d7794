//! Property tests for the wire protocol: every `Request`/`Response`
//! variant must encode to one line and decode back to an equal value,
//! for arbitrary payloads — session ids across the full `u64` range,
//! finite float box coordinates, and hostile message strings.

use proptest::prelude::*;
use seesaw::core::protocol::{ErrorCode, MethodSpec, Request, Response};
use seesaw::dataset::BBox;

fn method_spec(disc: u8, horizon: u32) -> MethodSpec {
    match disc % 7 {
        0 => MethodSpec::ZeroShot,
        1 => MethodSpec::FewShot,
        2 => MethodSpec::Rocchio,
        3 => MethodSpec::Ens { horizon },
        4 => MethodSpec::SeeSaw,
        5 => MethodSpec::SeeSawClipOnly,
        _ => MethodSpec::SeeSawProp,
    }
}

fn error_code(disc: u8) -> ErrorCode {
    match disc % 4 {
        0 => ErrorCode::UnknownSession,
        1 => ErrorCode::SessionClosed,
        2 => ErrorCode::InvalidRequest,
        _ => ErrorCode::Protocol,
    }
}

/// Arbitrary strings including the characters the codec must escape:
/// quotes, backslashes, control characters, and non-ASCII.
fn message() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..24).prop_map(|codes| {
        codes
            .into_iter()
            .filter_map(|c| char::from_u32(c % 0x11_0000))
            .collect()
    })
}

fn bbox() -> impl Strategy<Value = BBox> {
    (any::<f32>(), any::<f32>(), any::<f32>(), any::<f32>())
        .prop_map(|(x, y, w, h)| BBox::new(x, y, w, h))
}

/// One request of every variant, payload-randomized. The discriminant
/// picks the variant so each case covers all five.
fn request() -> impl Strategy<Value = Vec<Request>> {
    (
        (any::<u32>(), any::<u8>(), any::<u32>(), any::<u32>()),
        (any::<u64>(), any::<u32>(), any::<u32>(), any::<bool>()),
        proptest::collection::vec(bbox(), 0..4),
    )
        .prop_map(
            |((concept, mdisc, horizon, search_k), (session, n, image, relevant), boxes)| {
                vec![
                    Request::Create {
                        concept,
                        method: method_spec(mdisc, horizon),
                        search_k: (search_k % 2 == 0).then_some(search_k),
                    },
                    Request::NextBatch { session, n },
                    Request::Feedback {
                        session,
                        image,
                        relevant,
                        boxes,
                    },
                    Request::Stats { session },
                    Request::Close { session },
                ]
            },
        )
}

/// One response of every variant, payload-randomized.
fn response() -> impl Strategy<Value = Vec<Response>> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<f32>()),
        proptest::collection::vec(any::<u32>(), 0..8),
        (any::<u8>(), message()),
    )
        .prop_map(
            |((session, images_shown, feedback_received, query_drift), images, (cdisc, msg))| {
                vec![
                    Response::Created { session },
                    Response::Batch { images },
                    Response::Exhausted,
                    Response::Ack,
                    Response::Stats {
                        images_shown,
                        feedback_received,
                        query_drift,
                    },
                    Response::Error {
                        code: error_code(cdisc),
                        message: msg,
                    },
                ]
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_request_variant_round_trips(requests in request()) {
        for req in requests {
            let line = req.encode();
            prop_assert!(!line.contains('\n'), "must be one line: {line:?}");
            let back = Request::decode(&line);
            prop_assert_eq!(back.as_ref(), Ok(&req), "line was {}", line);
        }
    }

    #[test]
    fn every_response_variant_round_trips(responses in response()) {
        for resp in responses {
            let line = resp.encode();
            prop_assert!(!line.contains('\n'), "must be one line: {line:?}");
            let back = Response::decode(&line);
            prop_assert_eq!(back.as_ref(), Ok(&resp), "line was {}", line);
        }
    }

    #[test]
    fn decode_never_panics_on_mangled_lines(
        requests in request(),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        // Truncations and byte substitutions of valid lines must come
        // back as Ok (if still meaningful) or Err — never a panic.
        for req in requests {
            let line = req.encode();
            let cut = cut % (line.len() + 1);
            if line.is_char_boundary(cut) {
                let _ = Request::decode(&line[..cut]);
            }
            let mut bytes = line.clone().into_bytes();
            if !bytes.is_empty() {
                let at = flip % bytes.len();
                bytes[at] = bytes[at].wrapping_add(1);
                if let Ok(s) = std::str::from_utf8(&bytes) {
                    let _ = Request::decode(s);
                }
            }
        }
    }
}
