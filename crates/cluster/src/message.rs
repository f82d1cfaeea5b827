//! Wire protocol of the MDS cluster, with a length-prefixed binary codec.
//!
//! The live runtime sends these frames over its channel "network"; the
//! codec is the same one a TCP deployment would use (length-prefixed,
//! fixed-width big-endian fields), so the tests exercise real
//! encode/decode paths.

use bytes::{Buf, Bytes};
use d2tree_metrics::MdsId;
use d2tree_namespace::NodeId;
use d2tree_workload::OpKind;

/// Unique id a client assigns to each outstanding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// A metadata request from a client (or a forwarding MDS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Client-assigned id, echoed in the response.
    pub id: RequestId,
    /// Operation kind.
    pub kind: OpKind,
    /// Target metadata node.
    pub target: NodeId,
    /// How many times this request has been forwarded between MDSs.
    pub hops: u32,
    /// Trace context propagated across the wire when the operation is
    /// sampled: `(trace_id, parent_span_id)`. Servers parent their
    /// serve spans on it; `None` rides as zeroes on the wire.
    pub trace: Option<(u64, u64)>,
}

/// What an MDS answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseBody {
    /// The operation was served by this MDS.
    Served {
        /// Node the metadata belongs to.
        node: NodeId,
    },
    /// This MDS does not own the target; retry at the given server.
    Redirect {
        /// The server believed to own the target.
        owner: MdsId,
    },
    /// The target does not exist (or its owner is down and not yet
    /// re-homed).
    NotFound,
}

/// A response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub id: RequestId,
    /// Serving MDS.
    pub from: MdsId,
    /// Outcome.
    pub body: ResponseBody,
    /// Total forwarding hops the request experienced.
    pub hops: u32,
}

const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;
const KIND_UPDATE: u8 = 2;

const BODY_SERVED: u8 = 0;
const BODY_REDIRECT: u8 = 1;
const BODY_NOT_FOUND: u8 = 2;

/// Body length of a [`Request`] frame (id + kind + target + hops +
/// trace flag + trace id + parent span id).
pub const REQUEST_WIRE_BYTES: usize = 8 + 1 + 4 + 4 + 1 + 8 + 8;
/// Body length of a [`Response`] frame (id + from + tag + node + owner
/// + hops).
pub const RESPONSE_WIRE_BYTES: usize = 8 + 2 + 1 + 4 + 2 + 4;
/// Whole [`Request`] frame: length prefix plus body.
pub const REQUEST_FRAME_BYTES: usize = 4 + REQUEST_WIRE_BYTES;
/// Whole [`Response`] frame: length prefix plus body.
pub const RESPONSE_FRAME_BYTES: usize = 4 + RESPONSE_WIRE_BYTES;

/// The fixed-size frame at the front of `buf`, if `buf` holds all `N`
/// bytes of it and its length prefix says `N - 4`.
fn fixed_frame<const N: usize>(buf: &[u8]) -> Option<&[u8; N]> {
    let frame = buf.first_chunk::<N>()?;
    (be_u32(frame, 0) as usize == N - 4).then_some(frame)
}

fn be_u16(frame: &[u8], at: usize) -> u16 {
    u16::from_be_bytes(frame[at..at + 2].try_into().expect("2 bytes"))
}

fn be_u32(frame: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(frame[at..at + 4].try_into().expect("4 bytes"))
}

fn be_u64(frame: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(frame[at..at + 8].try_into().expect("8 bytes"))
}

impl Request {
    /// The request as one length-prefixed frame, built on the stack.
    fn to_frame(self) -> [u8; REQUEST_FRAME_BYTES] {
        let mut f = [0u8; REQUEST_FRAME_BYTES];
        f[..4].copy_from_slice(&(REQUEST_WIRE_BYTES as u32).to_be_bytes());
        f[4..12].copy_from_slice(&self.id.0.to_be_bytes());
        f[12] = match self.kind {
            OpKind::Read => KIND_READ,
            OpKind::Write => KIND_WRITE,
            OpKind::Update => KIND_UPDATE,
        };
        f[13..17].copy_from_slice(&(self.target.index() as u32).to_be_bytes());
        f[17..21].copy_from_slice(&self.hops.to_be_bytes());
        // An unsampled request leaves the flag and both context slots zero.
        if let Some((trace, span)) = self.trace {
            f[21] = 1;
            f[22..30].copy_from_slice(&trace.to_be_bytes());
            f[30..38].copy_from_slice(&span.to_be_bytes());
        }
        f
    }

    /// Appends the request to `out` as one length-prefixed frame — the
    /// socket path's encoder: no allocation once `out` has grown.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_frame());
    }

    /// Encodes the request as one length-prefixed frame.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.to_frame())
    }

    /// Decodes the frame at the front of `buf` (bytes past it are
    /// ignored), borrowing nothing: the socket path calls this on a
    /// slice of its read buffer.
    ///
    /// Returns `None` if `buf` does not start with a complete,
    /// well-formed request frame.
    #[must_use]
    pub fn decode_frame(buf: &[u8]) -> Option<Request> {
        let f = fixed_frame::<REQUEST_FRAME_BYTES>(buf)?;
        let kind = match f[12] {
            KIND_READ => OpKind::Read,
            KIND_WRITE => OpKind::Write,
            KIND_UPDATE => OpKind::Update,
            _ => return None,
        };
        let context = (be_u64(f, 22), be_u64(f, 30));
        let trace = match f[21] {
            // The context slots must ride as zeroes when unsampled.
            0 if context == (0, 0) => None,
            1 => Some(context),
            _ => return None,
        };
        Some(Request {
            id: RequestId(be_u64(f, 4)),
            kind,
            target: NodeId::from_index(be_u32(f, 13) as usize),
            hops: be_u32(f, 17),
            trace,
        })
    }

    /// Decodes one frame produced by [`encode`](Self::encode) off the
    /// front of `buf`.
    ///
    /// Returns `None`, leaving `buf` untouched, if the buffer does not
    /// hold a complete, well-formed frame.
    #[must_use]
    pub fn decode(buf: &mut Bytes) -> Option<Request> {
        let req = Self::decode_frame(buf)?;
        buf.advance(REQUEST_FRAME_BYTES);
        Some(req)
    }
}

impl Response {
    /// The response as one length-prefixed frame, built on the stack.
    fn to_frame(self) -> [u8; RESPONSE_FRAME_BYTES] {
        let mut f = [0u8; RESPONSE_FRAME_BYTES];
        f[..4].copy_from_slice(&(RESPONSE_WIRE_BYTES as u32).to_be_bytes());
        f[4..12].copy_from_slice(&self.id.0.to_be_bytes());
        f[12..14].copy_from_slice(&self.from.0.to_be_bytes());
        // The slot of the variant not sent (node or owner) stays zero.
        match self.body {
            ResponseBody::Served { node } => {
                f[14] = BODY_SERVED;
                f[15..19].copy_from_slice(&(node.index() as u32).to_be_bytes());
            }
            ResponseBody::Redirect { owner } => {
                f[14] = BODY_REDIRECT;
                f[19..21].copy_from_slice(&owner.0.to_be_bytes());
            }
            ResponseBody::NotFound => f[14] = BODY_NOT_FOUND,
        }
        f[21..25].copy_from_slice(&self.hops.to_be_bytes());
        f
    }

    /// Appends the response to `out` as one length-prefixed frame — the
    /// socket path's encoder: no allocation once `out` has grown.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_frame());
    }

    /// Encodes the response as one length-prefixed frame.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        Bytes::copy_from_slice(&self.to_frame())
    }

    /// Decodes the frame at the front of `buf` (bytes past it are
    /// ignored), borrowing nothing: the socket path calls this on a
    /// slice of its read buffer.
    ///
    /// Returns `None` if `buf` does not start with a complete,
    /// well-formed response frame.
    #[must_use]
    pub fn decode_frame(buf: &[u8]) -> Option<Response> {
        let f = fixed_frame::<RESPONSE_FRAME_BYTES>(buf)?;
        // The slot of the variant not sent must ride as zeroes.
        let body = match (f[14], be_u32(f, 15), be_u16(f, 19)) {
            (BODY_SERVED, node, 0) => ResponseBody::Served {
                node: NodeId::from_index(node as usize),
            },
            (BODY_REDIRECT, 0, owner) => ResponseBody::Redirect {
                owner: MdsId(owner),
            },
            (BODY_NOT_FOUND, 0, 0) => ResponseBody::NotFound,
            _ => return None,
        };
        Some(Response {
            id: RequestId(be_u64(f, 4)),
            from: MdsId(be_u16(f, 12)),
            body,
            hops: be_u32(f, 21),
        })
    }

    /// Decodes one frame produced by [`encode`](Self::encode) off the
    /// front of `buf`.
    ///
    /// Returns `None`, leaving `buf` untouched, if the buffer does not
    /// hold a complete, well-formed frame.
    #[must_use]
    pub fn decode(buf: &mut Bytes) -> Option<Response> {
        let resp = Self::decode_frame(buf)?;
        buf.advance(RESPONSE_FRAME_BYTES);
        Some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn request_roundtrip() {
        for kind in [OpKind::Read, OpKind::Write, OpKind::Update] {
            let req = Request {
                id: RequestId(0xDEAD_BEEF),
                kind,
                target: NodeId::from_index(12345),
                hops: 3,
                trace: None,
            };
            let mut framed = req.encode();
            assert_eq!(Request::decode(&mut framed), Some(req));
            assert!(framed.is_empty(), "frame fully consumed");
        }
    }

    #[test]
    fn trace_context_roundtrips_and_unsampled_slots_must_be_zero() {
        let req = Request {
            id: RequestId(7),
            kind: OpKind::Write,
            target: NodeId::from_index(3),
            hops: 1,
            trace: Some((0xAB, 0xCD)),
        };
        let mut framed = req.encode();
        assert_eq!(Request::decode(&mut framed), Some(req));

        let untraced = Request { trace: None, ..req };
        let mut raw = BytesMut::from(&untraced.encode()[..]);
        // Frame body starts at 4; id(8) + kind(1) + target(4) + hops(4)
        // put the flag at offset 21 and the trace id right after it.
        assert_eq!(raw[4 + 17], 0);
        raw[4 + 18] = 0xFF; // junk in a supposedly-empty trace slot
        let mut frame = raw.freeze();
        assert_eq!(Request::decode(&mut frame), None);
    }

    #[test]
    fn response_roundtrip() {
        let bodies = [
            ResponseBody::Served {
                node: NodeId::from_index(7),
            },
            ResponseBody::Redirect { owner: MdsId(31) },
            ResponseBody::NotFound,
        ];
        for body in bodies {
            let resp = Response {
                id: RequestId(42),
                from: MdsId(5),
                body,
                hops: 2,
            };
            let mut framed = resp.encode();
            assert_eq!(Response::decode(&mut framed), Some(resp));
            assert!(framed.is_empty(), "frame fully consumed: {resp:?}");
        }
    }

    fn sample_responses() -> Vec<Response> {
        [
            ResponseBody::Served {
                node: NodeId::from_index(7),
            },
            ResponseBody::Redirect { owner: MdsId(31) },
            ResponseBody::NotFound,
        ]
        .into_iter()
        .map(|body| Response {
            id: RequestId(42),
            from: MdsId(5),
            body,
            hops: 2,
        })
        .collect()
    }

    #[test]
    fn response_truncated_frames_are_rejected() {
        for resp in sample_responses() {
            let full = resp.encode();
            for cut in 0..full.len() {
                let mut partial = full.slice(..cut);
                assert_eq!(
                    Response::decode(&mut partial),
                    None,
                    "{resp:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn response_garbage_is_rejected() {
        // Unknown body tag.
        let mut raw = BytesMut::from(&sample_responses()[0].encode()[..]);
        raw[4 + 10] = 99; // the body tag byte
        assert_eq!(Response::decode(&mut raw.freeze()), None);

        // Length prefix disagreeing with the fixed frame size.
        let mut raw = BytesMut::from(&sample_responses()[0].encode()[..]);
        raw[3] = 20; // the pre-fix (short) length
        assert_eq!(Response::decode(&mut raw.freeze()), None);
    }

    #[test]
    fn flipped_bytes_never_panic_the_decoders() {
        // Any single corrupted byte must decode to None, consuming
        // nothing, or to some well-formed value that consumes the whole
        // frame — never panic.
        let req = Request {
            id: RequestId(77),
            kind: OpKind::Update,
            target: NodeId::from_index(12345),
            hops: 2,
            trace: Some((0xAB, 0xCD)),
        };
        let req_frame = req.encode();
        for i in 0..req_frame.len() {
            let mut raw = BytesMut::from(&req_frame[..]);
            raw[i] ^= 0xFF;
            let mut frame = raw.freeze();
            let before = frame.clone();
            match Request::decode(&mut frame) {
                Some(_) => assert!(frame.is_empty(), "byte {i}: partial consume"),
                None => assert_eq!(frame, before, "byte {i}: rejected frame consumed"),
            }
        }
        for resp in sample_responses() {
            let resp_frame = resp.encode();
            for i in 0..resp_frame.len() {
                let mut raw = BytesMut::from(&resp_frame[..]);
                raw[i] ^= 0xFF;
                let mut frame = raw.freeze();
                let before = frame.clone();
                match Response::decode(&mut frame) {
                    Some(_) => assert!(frame.is_empty(), "byte {i}: partial consume"),
                    None => assert_eq!(frame, before, "byte {i}: rejected frame consumed"),
                }
            }
        }
    }

    /// Every rejection branch of both decoders leaves the caller's
    /// buffer byte-identical: nothing is consumed unless a whole
    /// well-formed frame was.
    #[test]
    fn rejected_frames_leave_the_buffer_untouched() {
        let req = Request {
            id: RequestId(77),
            kind: OpKind::Update,
            target: NodeId::from_index(12345),
            hops: 2,
            trace: None,
        };
        let corrupt = |frame: &Bytes, at: usize, byte: u8| {
            let mut raw = BytesMut::from(&frame[..]);
            raw[at] = byte;
            raw.freeze()
        };
        let good = req.encode();
        let sampled = Request {
            trace: Some((0xAB, 0xCD)),
            ..req
        }
        .encode();
        let bad_requests = [
            ("shorter than a length prefix", good.slice(..3)),
            ("truncated body", good.slice(..good.len() - 1)),
            ("length prefix too short", corrupt(&good, 3, 33)),
            ("length prefix too long", corrupt(&good, 3, 35)),
            ("unknown kind", corrupt(&good, 4 + 8, 99)),
            ("unknown trace flag", corrupt(&sampled, 4 + 17, 2)),
            ("unsampled with a trace id", corrupt(&good, 4 + 18, 0xFF)),
            ("unsampled with a span id", corrupt(&good, 4 + 33, 0xFF)),
        ];
        for (why, bad) in bad_requests {
            let mut buf = bad.clone();
            assert_eq!(Request::decode(&mut buf), None, "{why}");
            assert_eq!(buf, bad, "{why}: rejected request consumed input");
        }
        let responses = sample_responses();
        let good = responses[0].encode();
        let bad_responses = [
            ("shorter than a length prefix", good.slice(..3)),
            ("truncated body", good.slice(..good.len() - 1)),
            ("length prefix too short", corrupt(&good, 3, 20)),
            ("length prefix too long", corrupt(&good, 3, 22)),
            ("unknown body tag", corrupt(&good, 4 + 10, 99)),
            ("served with an owner", corrupt(&good, 4 + 16, 0xFF)),
            (
                "redirect with a node",
                corrupt(&responses[1].encode(), 4 + 11, 0xFF),
            ),
            (
                "not found with a node",
                corrupt(&responses[2].encode(), 4 + 14, 0xFF),
            ),
        ];
        for (why, bad) in bad_responses {
            let mut buf = bad.clone();
            assert_eq!(Response::decode(&mut buf), None, "{why}");
            assert_eq!(buf, bad, "{why}: rejected response consumed input");
        }
    }

    /// The wire format, pinned byte for byte (these are the strings the
    /// pre-slice `BytesMut` codec produced), through both encoders.
    #[test]
    fn golden_bytes_pin_the_wire_format() {
        let req = Request {
            id: RequestId(0x0102_0304_0506_0708),
            kind: OpKind::Update,
            target: NodeId::from_index(0x0A0B_0C0D),
            hops: 3,
            trace: None,
        };
        #[rustfmt::skip]
        let unsampled: [u8; REQUEST_FRAME_BYTES] = [
            0, 0, 0, 34,                 // length prefix
            1, 2, 3, 4, 5, 6, 7, 8,      // id
            2,                           // kind: update
            0x0A, 0x0B, 0x0C, 0x0D,      // target
            0, 0, 0, 3,                  // hops
            0,                           // unsampled
            0, 0, 0, 0, 0, 0, 0, 0,      // trace id slot
            0, 0, 0, 0, 0, 0, 0, 0,      // parent span slot
        ];
        let mut sampled = unsampled;
        sampled[21] = 1;
        sampled[22..30].copy_from_slice(&[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
        sampled[30..38].copy_from_slice(&[0, 0, 0, 0, 0, 0, 0xAB, 0xCD]);
        let traced = Request {
            trace: Some((0x1122_3344_5566_7788, 0xABCD)),
            ..req
        };
        for (req, golden) in [(req, unsampled), (traced, sampled)] {
            assert_eq!(&req.encode()[..], &golden[..], "{req:?}");
            let mut out = vec![0xEE];
            req.encode_into(&mut out);
            assert_eq!(
                &out[1..],
                &golden[..],
                "{req:?} appended after existing bytes"
            );
            assert_eq!(Request::decode_frame(&golden), Some(req));
        }

        let resp = |body| Response {
            id: RequestId(0x0102_0304_0506_0708),
            from: MdsId(0x0910),
            body,
            hops: 0x0000_0203,
        };
        #[rustfmt::skip]
        let cases: [(Response, [u8; RESPONSE_FRAME_BYTES]); 3] = [
            (
                resp(ResponseBody::Served { node: NodeId::from_index(0x0A0B_0C0D) }),
                [0, 0, 0, 21, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x10, 0,
                 0x0A, 0x0B, 0x0C, 0x0D, 0, 0, 0, 0, 2, 3],
            ),
            (
                resp(ResponseBody::Redirect { owner: MdsId(0x1F2E) }),
                [0, 0, 0, 21, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x10, 1,
                 0, 0, 0, 0, 0x1F, 0x2E, 0, 0, 2, 3],
            ),
            (
                resp(ResponseBody::NotFound),
                [0, 0, 0, 21, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x10, 2,
                 0, 0, 0, 0, 0, 0, 0, 0, 2, 3],
            ),
        ];
        for (resp, golden) in cases {
            assert_eq!(&resp.encode()[..], &golden[..], "{resp:?}");
            let mut out = vec![0xEE];
            resp.encode_into(&mut out);
            assert_eq!(
                &out[1..],
                &golden[..],
                "{resp:?} appended after existing bytes"
            );
            assert_eq!(Response::decode_frame(&golden), Some(resp));
        }
    }

    #[test]
    fn response_back_to_back_frames_decode_in_order() {
        // The length prefix must cover the whole body, or the second
        // frame starts one byte early (the pre-fix bug this guards).
        let mut stream = BytesMut::new();
        for resp in sample_responses() {
            stream.extend_from_slice(&resp.encode());
        }
        let mut stream = stream.freeze();
        for resp in sample_responses() {
            assert_eq!(Response::decode(&mut stream), Some(resp));
        }
        assert!(stream.is_empty());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let req = Request {
            id: RequestId(1),
            kind: OpKind::Read,
            target: NodeId::from_index(1),
            hops: 0,
            trace: Some((9, 17)),
        };
        let full = req.encode();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            assert_eq!(Request::decode(&mut partial), None, "cut at {cut}");
        }
    }

    #[test]
    fn garbage_kind_is_rejected() {
        let req = Request {
            id: RequestId(1),
            kind: OpKind::Read,
            target: NodeId::from_index(1),
            hops: 0,
            trace: None,
        };
        let mut raw = BytesMut::from(&req.encode()[..]);
        raw[4 + 8] = 99; // corrupt the kind byte
        let mut frame = raw.freeze();
        assert_eq!(Request::decode(&mut frame), None);
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let a = Request {
            id: RequestId(1),
            kind: OpKind::Read,
            target: NodeId::from_index(10),
            hops: 0,
            trace: Some((1, 2)),
        };
        let b = Request {
            id: RequestId(2),
            kind: OpKind::Update,
            target: NodeId::from_index(20),
            hops: 1,
            trace: None,
        };
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&a.encode());
        stream.extend_from_slice(&b.encode());
        let mut stream = stream.freeze();
        assert_eq!(Request::decode(&mut stream), Some(a));
        assert_eq!(Request::decode(&mut stream), Some(b));
        assert!(stream.is_empty());
    }
}
