//! Wire protocol of the MDS cluster, with a length-prefixed binary codec.
//!
//! The live runtime sends these frames over its channel "network"; the
//! codec is the same one a TCP deployment would use (length-prefixed,
//! fixed-width big-endian fields), so the tests exercise real
//! encode/decode paths.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use d2tree_metrics::MdsId;
use d2tree_namespace::NodeId;
use d2tree_workload::OpKind;
use serde::{Deserialize, Serialize};

use crate::consensus::{Command, Entry, PeerMsg};

/// Unique id a client assigns to each outstanding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// A metadata request from a client (or a forwarding MDS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
        let body = match f[14] {
            BODY_SERVED => ResponseBody::Served {
                node: NodeId::from_index(be_u32(f, 15) as usize),
            },
            BODY_REDIRECT => ResponseBody::Redirect {
                owner: MdsId(be_u16(f, 19)),
            },
            BODY_NOT_FOUND => ResponseBody::NotFound,
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

const PEER_REQUEST_VOTE: u8 = 0;
const PEER_VOTE_REPLY: u8 = 1;
const PEER_APPEND: u8 = 2;
const PEER_APPEND_REPLY: u8 = 3;

/// Encoded size of one replicated-log [`Entry`] inside an `Append`
/// frame: term + index + opcode + three operands.
const ENTRY_WIRE_BYTES: usize = 8 + 8 + 1 + 8 + 8 + 8;

fn put_entry(buf: &mut BytesMut, e: &Entry) {
    let (op, a, b, c) = e.cmd.to_wire();
    buf.put_u64(e.term);
    buf.put_u64(e.index);
    buf.put_u8(op);
    buf.put_u64(a);
    buf.put_u64(b);
    buf.put_u64(c);
}

fn get_entry(buf: &mut Bytes) -> Option<Entry> {
    let term = buf.get_u64();
    let index = buf.get_u64();
    let op = buf.get_u8();
    let (a, b, c) = (buf.get_u64(), buf.get_u64(), buf.get_u64());
    Some(Entry {
        term,
        index,
        cmd: Command::from_wire(op, a, b, c)?,
    })
}

impl PeerMsg {
    /// Encodes the consensus message as one length-prefixed frame,
    /// using the same codec conventions as [`Request`]/[`Response`].
    #[must_use]
    pub fn encode(&self) -> Bytes {
        match self {
            PeerMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                let mut buf = BytesMut::with_capacity(4 + 27);
                buf.put_u32(27);
                buf.put_u8(PEER_REQUEST_VOTE);
                buf.put_u64(*term);
                buf.put_u16(*candidate);
                buf.put_u64(*last_log_index);
                buf.put_u64(*last_log_term);
                buf.freeze()
            }
            PeerMsg::VoteReply {
                term,
                voter,
                granted,
            } => {
                let mut buf = BytesMut::with_capacity(4 + 12);
                buf.put_u32(12);
                buf.put_u8(PEER_VOTE_REPLY);
                buf.put_u64(*term);
                buf.put_u16(*voter);
                buf.put_u8(u8::from(*granted));
                buf.freeze()
            }
            PeerMsg::Append {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                let len = 37 + entries.len() * ENTRY_WIRE_BYTES;
                let mut buf = BytesMut::with_capacity(4 + len);
                buf.put_u32(len as u32);
                buf.put_u8(PEER_APPEND);
                buf.put_u64(*term);
                buf.put_u16(*leader);
                buf.put_u64(*prev_index);
                buf.put_u64(*prev_term);
                buf.put_u64(*commit);
                buf.put_u16(entries.len() as u16);
                for e in entries {
                    put_entry(&mut buf, e);
                }
                buf.freeze()
            }
            PeerMsg::AppendReply {
                term,
                follower,
                success,
                match_index,
            } => {
                let mut buf = BytesMut::with_capacity(4 + 20);
                buf.put_u32(20);
                buf.put_u8(PEER_APPEND_REPLY);
                buf.put_u64(*term);
                buf.put_u16(*follower);
                buf.put_u8(u8::from(*success));
                buf.put_u64(*match_index);
                buf.freeze()
            }
        }
    }

    /// Decodes one frame produced by [`encode`](Self::encode).
    ///
    /// Returns `None` if the buffer does not hold a complete,
    /// well-formed frame (truncation, bad tag, length/count mismatch,
    /// or an entry whose command opcode is unknown).
    #[must_use]
    pub fn decode(buf: &mut Bytes) -> Option<PeerMsg> {
        if buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(buf[..4].try_into().ok()?) as usize;
        if buf.len() < 4 + len || len < 1 {
            return None;
        }
        let tag = buf[4];
        let expected = match tag {
            PEER_REQUEST_VOTE => 27,
            PEER_VOTE_REPLY => 12,
            PEER_APPEND => {
                if len < 37 {
                    return None;
                }
                let count = u16::from_be_bytes(buf[4 + 35..4 + 37].try_into().ok()?) as usize;
                37 + count * ENTRY_WIRE_BYTES
            }
            PEER_APPEND_REPLY => 20,
            _ => return None,
        };
        if len != expected {
            return None;
        }
        buf.advance(5);
        match tag {
            PEER_REQUEST_VOTE => Some(PeerMsg::RequestVote {
                term: buf.get_u64(),
                candidate: buf.get_u16(),
                last_log_index: buf.get_u64(),
                last_log_term: buf.get_u64(),
            }),
            PEER_VOTE_REPLY => {
                let term = buf.get_u64();
                let voter = buf.get_u16();
                let granted = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                Some(PeerMsg::VoteReply {
                    term,
                    voter,
                    granted,
                })
            }
            PEER_APPEND => {
                let term = buf.get_u64();
                let leader = buf.get_u16();
                let prev_index = buf.get_u64();
                let prev_term = buf.get_u64();
                let commit = buf.get_u64();
                let count = buf.get_u16() as usize;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push(get_entry(buf)?);
                }
                Some(PeerMsg::Append {
                    term,
                    leader,
                    prev_index,
                    prev_term,
                    commit,
                    entries,
                })
            }
            PEER_APPEND_REPLY => {
                let term = buf.get_u64();
                let follower = buf.get_u16();
                let success = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                Some(PeerMsg::AppendReply {
                    term,
                    follower,
                    success,
                    match_index: buf.get_u64(),
                })
            }
            _ => unreachable!("tag validated above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let good = sample_responses()[0].encode();
        let bad_responses = [
            ("shorter than a length prefix", good.slice(..3)),
            ("truncated body", good.slice(..good.len() - 1)),
            ("length prefix too short", corrupt(&good, 3, 20)),
            ("length prefix too long", corrupt(&good, 3, 22)),
            ("unknown body tag", corrupt(&good, 4 + 10, 99)),
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

    fn sample_peer_msgs() -> Vec<PeerMsg> {
        vec![
            PeerMsg::RequestVote {
                term: 3,
                candidate: 1,
                last_log_index: 17,
                last_log_term: 2,
            },
            PeerMsg::VoteReply {
                term: 3,
                voter: 2,
                granted: true,
            },
            PeerMsg::Append {
                term: 4,
                leader: 0,
                prev_index: 9,
                prev_term: 3,
                commit: 8,
                entries: vec![
                    Entry {
                        term: 4,
                        index: 10,
                        cmd: Command::Noop,
                    },
                    Entry {
                        term: 4,
                        index: 11,
                        cmd: Command::LeaseAcquire {
                            node: u64::MAX,
                            holder: 7,
                            now_ms: 12345,
                        },
                    },
                    Entry {
                        term: 4,
                        index: 12,
                        cmd: Command::Migrate {
                            subtree: 99,
                            from: 1,
                            to: 2,
                        },
                    },
                ],
            },
            PeerMsg::Append {
                term: 5,
                leader: 2,
                prev_index: 0,
                prev_term: 0,
                commit: 0,
                entries: Vec::new(),
            },
            PeerMsg::AppendReply {
                term: 4,
                follower: 1,
                success: false,
                match_index: 6,
            },
        ]
    }

    #[test]
    fn peer_msg_roundtrip() {
        for msg in sample_peer_msgs() {
            let mut framed = msg.encode();
            assert_eq!(PeerMsg::decode(&mut framed), Some(msg.clone()), "{msg:?}");
            assert!(framed.is_empty(), "frame fully consumed: {msg:?}");
        }
    }

    #[test]
    fn peer_msg_truncated_frames_are_rejected() {
        for msg in sample_peer_msgs() {
            let full = msg.encode();
            for cut in 0..full.len() {
                let mut partial = full.slice(..cut);
                assert_eq!(PeerMsg::decode(&mut partial), None, "{msg:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn peer_msg_garbage_is_rejected() {
        // Unknown frame tag.
        let mut raw = BytesMut::from(
            &PeerMsg::VoteReply {
                term: 1,
                voter: 0,
                granted: false,
            }
            .encode()[..],
        );
        raw[4] = 77;
        assert_eq!(PeerMsg::decode(&mut raw.freeze()), None);

        // Non-boolean granted byte.
        let mut raw = BytesMut::from(
            &PeerMsg::VoteReply {
                term: 1,
                voter: 0,
                granted: true,
            }
            .encode()[..],
        );
        *raw.last_mut().unwrap() = 2;
        assert_eq!(PeerMsg::decode(&mut raw.freeze()), None);

        // Entry with an unknown command opcode inside an Append.
        let msg = PeerMsg::Append {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            commit: 0,
            entries: vec![Entry {
                term: 1,
                index: 1,
                cmd: Command::Noop,
            }],
        };
        let mut raw = BytesMut::from(&msg.encode()[..]);
        raw[4 + 37 + 16] = 200; // the entry's opcode byte
        assert_eq!(PeerMsg::decode(&mut raw.freeze()), None);

        // Length prefix that disagrees with the entry count.
        let mut raw = BytesMut::from(&msg.encode()[..]);
        raw[4 + 36] = 2; // claim two entries, carry one
        assert_eq!(PeerMsg::decode(&mut raw.freeze()), None);
    }

    #[test]
    fn peer_msg_back_to_back_frames_decode_in_order() {
        let msgs = sample_peer_msgs();
        let mut stream = BytesMut::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }
        let mut stream = stream.freeze();
        for m in &msgs {
            assert_eq!(PeerMsg::decode(&mut stream), Some(m.clone()));
        }
        assert!(stream.is_empty());
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
