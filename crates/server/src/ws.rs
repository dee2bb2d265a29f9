//! WebSocket (RFC 6455) server-side support: the upgrade handshake and the
//! frame layer, hand-rolled like the rest of the transport stack.
//!
//! Only what `/v1/stream` needs is implemented: unfragmented frames, masked
//! client → server traffic (the RFC makes the mask mandatory from clients;
//! unmasked client frames are a protocol violation and close the
//! connection), binary payloads carrying wire frames, and ping/pong/close
//! control frames.  The handshake's `Sec-WebSocket-Accept` digest requires
//! SHA-1 and base64 — both ~30 lines, both below, both unit-tested against
//! the RFC's own vectors.

use std::io::{self, Read, Write};

/// The GUID every WebSocket accept digest concatenates (RFC 6455 §1.3).
const WS_GUID: &str = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";

/// Largest client frame payload `/v1/stream` accepts (submissions are
/// small; results only travel server → client).
pub const MAX_CLIENT_PAYLOAD: usize = 1 << 20; // 1 MiB

/// SHA-1 of `data` (FIPS 180-1).  Used only for the WebSocket handshake —
/// the protocol mandates it; nothing security-sensitive rides on it.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64) * 8;
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    for chunk in msg.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &word) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(word);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }

    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Standard base64 (RFC 4648, with padding).
pub fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// The `Sec-WebSocket-Accept` value for a client's `Sec-WebSocket-Key`.
pub fn accept_key(client_key: &str) -> String {
    let mut input = client_key.trim().as_bytes().to_vec();
    input.extend_from_slice(WS_GUID.as_bytes());
    base64(&sha1(&input))
}

/// One decoded client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsMessage {
    /// A binary payload (the only data kind `/v1/stream` speaks).
    Binary(Vec<u8>),
    /// A ping; the server answers with a pong echoing the payload.
    Ping(Vec<u8>),
    /// A pong (reply to the server's heartbeat); carries no obligation.
    Pong(Vec<u8>),
    /// The peer started the closing handshake.
    Close,
}

/// Why reading a client frame failed.
#[derive(Debug)]
pub enum WsError {
    /// The transport failed or the peer hung up.
    Io(io::Error),
    /// The peer violated the protocol; the connection must close.
    Protocol(&'static str),
}

impl From<io::Error> for WsError {
    fn from(error: io::Error) -> Self {
        WsError::Io(error)
    }
}

/// Reads one complete client frame.  Client frames must be masked and
/// unfragmented; text frames are rejected (the stream's vocabulary is binary
/// wire frames only).
pub fn read_message(reader: &mut impl Read) -> Result<WsMessage, WsError> {
    let mut head = [0u8; 2];
    reader.read_exact(&mut head)?;
    let fin = head[0] & 0x80 != 0;
    if head[0] & 0x70 != 0 {
        return Err(WsError::Protocol("reserved bits set"));
    }
    let opcode = head[0] & 0x0F;
    if !fin {
        return Err(WsError::Protocol("fragmented frames are not supported"));
    }
    let masked = head[1] & 0x80 != 0;
    if !masked {
        return Err(WsError::Protocol("client frames must be masked"));
    }
    let mut len = (head[1] & 0x7F) as u64;
    if len == 126 {
        let mut ext = [0u8; 2];
        reader.read_exact(&mut ext)?;
        len = u16::from_be_bytes(ext) as u64;
    } else if len == 127 {
        let mut ext = [0u8; 8];
        reader.read_exact(&mut ext)?;
        len = u64::from_be_bytes(ext);
    }
    if len > MAX_CLIENT_PAYLOAD as u64 {
        return Err(WsError::Protocol("client payload too large"));
    }
    let mut mask = [0u8; 4];
    reader.read_exact(&mut mask)?;
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    for (i, byte) in payload.iter_mut().enumerate() {
        *byte ^= mask[i % 4];
    }
    match opcode {
        0x2 => Ok(WsMessage::Binary(payload)),
        0x8 => Ok(WsMessage::Close),
        0x9 => Ok(WsMessage::Ping(payload)),
        0xA => Ok(WsMessage::Pong(payload)),
        0x1 => Err(WsError::Protocol("text frames are not supported")),
        0x0 => Err(WsError::Protocol("fragmented frames are not supported")),
        _ => Err(WsError::Protocol("unknown opcode")),
    }
}

/// Frames `payload` and sends head and payload in one write, so a frame
/// leaves a `TCP_NODELAY` socket as one segment rather than two.
fn write_frame(writer: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(10 + payload.len());
    frame.push(0x80 | opcode); // FIN, server frames are never fragmented
    if payload.len() < 126 {
        frame.push(payload.len() as u8);
    } else if payload.len() <= u16::MAX as usize {
        frame.push(126);
        frame.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    } else {
        frame.push(127);
        frame.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    }
    frame.extend_from_slice(payload);
    writer.write_all(&frame)?;
    writer.flush()
}

/// Sends a binary frame (server frames are unmasked, per the RFC).
pub fn write_binary(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(writer, 0x2, payload)
}

/// Sends a ping (the server's connection heartbeat).
pub fn write_ping(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(writer, 0x9, payload)
}

/// Sends a pong echoing a client ping's payload.
pub fn write_pong(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(writer, 0xA, payload)
}

/// Sends a close frame with a status code (1000 = normal, 1002 = protocol
/// error).
pub fn write_close(writer: &mut impl Write, code: u16) -> io::Result<()> {
    write_frame(writer, 0x8, &code.to_be_bytes())
}

/// Masks a payload and frames it as a *client* frame — the test client's
/// half of the conversation (servers never send masked frames).
pub fn client_frame(opcode: u8, payload: &[u8], mask: [u8; 4]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.push(0x80 | opcode);
    if payload.len() < 126 {
        out.push(0x80 | payload.len() as u8);
    } else if payload.len() <= u16::MAX as usize {
        out.push(0x80 | 126);
        out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    } else {
        out.push(0x80 | 127);
        out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    }
    out.extend_from_slice(&mask);
    out.extend(
        payload
            .iter()
            .enumerate()
            .map(|(i, byte)| byte ^ mask[i % 4]),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn sha1_matches_the_fips_vectors() {
        fn hex(digest: [u8; 20]) -> String {
            digest.iter().map(|b| format!("{b:02x}")).collect()
        }
        assert_eq!(
            hex(sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(hex(sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn base64_matches_rfc4648_vectors() {
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foob"), "Zm9vYg==");
        assert_eq!(base64(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn accept_key_matches_the_rfc6455_example() {
        assert_eq!(
            accept_key("dGhlIHNhbXBsZSBub25jZQ=="),
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        );
    }

    #[test]
    fn masked_client_frames_round_trip_through_the_reader() {
        let payload = b"the payload".to_vec();
        let framed = client_frame(0x2, &payload, [0x12, 0x34, 0x56, 0x78]);
        let message = read_message(&mut Cursor::new(framed)).unwrap();
        assert_eq!(message, WsMessage::Binary(payload));

        // Extended 16-bit length.
        let long = vec![7u8; 300];
        let framed = client_frame(0x2, &long, [9, 9, 9, 9]);
        assert_eq!(
            read_message(&mut Cursor::new(framed)).unwrap(),
            WsMessage::Binary(long)
        );
    }

    #[test]
    fn unmasked_and_fragmented_client_frames_are_protocol_errors() {
        // Server-style (unmasked) frame fed back as client input.
        let mut unmasked = Vec::new();
        write_binary(&mut unmasked, b"x").unwrap();
        assert!(matches!(
            read_message(&mut Cursor::new(unmasked)),
            Err(WsError::Protocol("client frames must be masked"))
        ));

        // FIN bit cleared: fragmentation is not supported.
        let mut fragmented = client_frame(0x2, b"x", [0, 0, 0, 0]);
        fragmented[0] &= 0x7F;
        assert!(matches!(
            read_message(&mut Cursor::new(fragmented)),
            Err(WsError::Protocol(_))
        ));
    }

    #[test]
    fn control_frames_decode_and_server_frames_encode() {
        let ping = client_frame(0x9, b"hb-1", [1, 2, 3, 4]);
        assert_eq!(
            read_message(&mut Cursor::new(ping)).unwrap(),
            WsMessage::Ping(b"hb-1".to_vec())
        );
        let close = client_frame(0x8, &1000u16.to_be_bytes(), [0, 0, 0, 0]);
        assert_eq!(
            read_message(&mut Cursor::new(close)).unwrap(),
            WsMessage::Close
        );

        let mut out = Vec::new();
        write_close(&mut out, 1000).unwrap();
        assert_eq!(out, vec![0x88, 0x02, 0x03, 0xE8]);
        let mut out = Vec::new();
        write_pong(&mut out, b"hb-1").unwrap();
        assert_eq!(&out[..2], &[0x8A, 0x04]);
    }

    #[test]
    fn a_server_frame_is_one_write() {
        /// Records every `write` call separately.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for len in [0, 125, 126, 300, 70_000] {
            let payload = vec![0x5A; len];
            let mut writes = Writes::default();
            write_binary(&mut writes, &payload).unwrap();
            assert_eq!(writes.0.len(), 1, "{len}-byte payload took several writes");
            let mut joined = Vec::new();
            write_binary(&mut joined, &payload).unwrap();
            assert_eq!(writes.0[0], joined);
            assert!(joined.ends_with(&payload));
        }
    }
}
