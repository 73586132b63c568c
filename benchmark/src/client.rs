//! The Q application's side of QIPC: handshake, one synchronous query
//! at a time, kdb+-style error frames.
//!
//! The repository's `hyperq::endpoint::QipcClient` takes byte 8 of any
//! frame equal to `0x80` for an error frame. In a compressed frame byte
//! 8 is the low byte of the uncompressed length, so one large reply in
//! 256 reads as an error. This client looks at the compression flag
//! first; it is otherwise the same few lines over the `qipc` crate.

use qipc::Message;
use qlang::Value;
use std::io::{Read, Write};
use std::net::TcpStream;

pub struct Client {
    stream: TcpStream,
    buffer: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str, user: &str) -> Result<Client, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .write_all(&qipc::client_handshake(user, "", 3))
            .map_err(|e| format!("handshake: {e}"))?;
        let mut capability = [0u8; 1];
        stream
            .read_exact(&mut capability)
            .map_err(|e| format!("handshake refused: {e}"))?;
        Ok(Client {
            stream,
            buffer: Vec::new(),
        })
    }

    /// Send `text` synchronously; wait for the reply. An error frame
    /// comes back as `Err` with the server's text.
    pub fn query(&mut self, text: &str) -> Result<Value, String> {
        let frame = qipc::write_message(&Message::query(text)).map_err(|e| e.to_string())?;
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 65536];
        loop {
            if self.buffer.len() >= 9 {
                let total =
                    u32::from_le_bytes(self.buffer[4..8].try_into().expect("4 bytes")) as usize;
                let uncompressed = self.buffer[2] == 0;
                if uncompressed && self.buffer[8] == 0x80 {
                    if self.buffer.len() >= total {
                        let text = String::from_utf8_lossy(&self.buffer[9..total.max(10) - 1])
                            .into_owned();
                        self.buffer.drain(..total);
                        return Err(text);
                    }
                } else if let Some((msg, used)) =
                    qipc::read_message(&self.buffer).map_err(|e| e.to_string())?
                {
                    self.buffer.drain(..used);
                    return Ok(msg.value);
                }
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("connection closed while awaiting the reply".to_string());
            }
            self.buffer.extend_from_slice(&chunk[..n]);
        }
    }
}
