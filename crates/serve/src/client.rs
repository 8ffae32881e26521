//! A small blocking client for the wire protocol — used by the load
//! generator, the loopback tests, and anyone scripting against a
//! running server.
//!
//! [`MapClient`] is synchronous and single-threaded: send a request,
//! read frames until the matching reply arrives. For pipelined traffic
//! (many requests in flight) split the stream with
//! [`MapClient::into_split`] and run the sender and receiver on separate
//! threads, matching replies to requests by `req_id` — replies may
//! arrive out of order relative to sends (overload refusals short-cut
//! the queue).

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    read_frame, write_frame, HealthReply, Request, Response, ServerCounters, WireError,
};

/// A blocking connection to an `asmcap-serve` server.
#[derive(Debug)]
pub struct MapClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl MapClient {
    /// Connects.
    ///
    /// # Errors
    ///
    /// I/O errors from connect/configure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Arms (or clears) a receive timeout, after which blocked reads fail
    /// with a timeout-shaped [`WireError::Io`].
    ///
    /// # Errors
    ///
    /// I/O errors from configuring the socket.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Wire-level write failures.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        write_frame(&mut self.writer, &request.encode())
    }

    /// Reads the next response frame.
    ///
    /// # Errors
    ///
    /// Wire-level read/decode failures ([`WireError::Disconnected`] on a
    /// clean server close).
    pub fn recv(&mut self) -> Result<Response, WireError> {
        Response::decode(&read_frame(&mut self.reader)?)
    }

    /// Maps one read and blocks for its reply: the response whose
    /// `req_id` matches (map reply or overload). Unrelated responses
    /// arriving first are returned as errors by contract violation — a
    /// single-threaded client has nothing else in flight.
    ///
    /// # Errors
    ///
    /// Wire-level failures, or [`WireError::Malformed`] if the server
    /// answers with a response for a different request.
    pub fn map_one(&mut self, req_id: u64, bases: &[u8]) -> Result<Response, WireError> {
        self.send(&Request::Map {
            req_id,
            bases: bases.to_vec(),
        })?;
        let response = self.recv()?;
        let answered = match &response {
            Response::Map(reply) => reply.req_id == req_id,
            Response::Overload { req_id: r, .. } => *r == req_id,
            // Protocol errors answer whatever was just sent.
            Response::ProtocolError { .. } => true,
            Response::Stats(_) | Response::ShutdownAck | Response::Health(_) => false,
        };
        if answered {
            Ok(response)
        } else {
            Err(WireError::Malformed("response for a different request"))
        }
    }

    /// Fetches the server's readiness/degradation snapshot.
    ///
    /// # Errors
    ///
    /// Wire-level failures, or [`WireError::Malformed`] on a non-health
    /// response.
    pub fn health(&mut self) -> Result<HealthReply, WireError> {
        self.send(&Request::Health)?;
        match self.recv()? {
            Response::Health(health) => Ok(health),
            _ => Err(WireError::Malformed("expected a health response")),
        }
    }

    /// Fetches the server's aggregate counters.
    ///
    /// # Errors
    ///
    /// Wire-level failures, or [`WireError::Malformed`] on a non-stats
    /// response.
    pub fn stats(&mut self) -> Result<ServerCounters, WireError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Response::Stats(counters) => Ok(counters),
            _ => Err(WireError::Malformed("expected a stats response")),
        }
    }

    /// Asks the server to shut down and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Wire-level failures, or [`WireError::Malformed`] if the server
    /// refuses (remote shutdown not allowed).
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Response::ShutdownAck => Ok(()),
            _ => Err(WireError::Malformed("expected a shutdown acknowledgement")),
        }
    }

    /// Splits into independently-owned send and receive halves for
    /// pipelined traffic from two threads. The send half is **buffered**:
    /// call [`SendHalf::flush`] to push queued frames to the wire.
    ///
    /// # Errors
    ///
    /// I/O errors from duplicating the socket handle.
    pub fn into_split(self) -> io::Result<(SendHalf, RecvHalf)> {
        Ok((
            SendHalf {
                stream: BufWriter::new(self.writer),
            },
            RecvHalf {
                stream: self.reader,
            },
        ))
    }
}

/// The buffered sending half of a split [`MapClient`].
#[derive(Debug)]
pub struct SendHalf {
    stream: BufWriter<TcpStream>,
}

impl SendHalf {
    /// Queues one request frame in the send buffer ([`SendHalf::flush`]
    /// pushes it to the wire).
    ///
    /// # Errors
    ///
    /// Wire-level write failures.
    pub fn send(&mut self, request: &Request) -> Result<(), WireError> {
        write_frame(&mut self.stream, &request.encode())
    }

    /// Queues an already-framed request produced by
    /// [`Request::encode_framed`] — the zero-encode path for pre-built
    /// request streams.
    ///
    /// # Errors
    ///
    /// I/O errors from the buffered write.
    pub fn send_framed(&mut self, framed: &[u8]) -> io::Result<()> {
        self.stream.write_all(framed)
    }

    /// Flushes buffered frames to the socket.
    ///
    /// # Errors
    ///
    /// I/O errors from the flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }

    /// Flushes, then half-closes the write side, telling the server this
    /// client is done sending (its reader sees EOF once queued frames
    /// drain).
    ///
    /// # Errors
    ///
    /// I/O errors from the flush or socket shutdown.
    pub fn finish(&mut self) -> io::Result<()> {
        self.stream.flush()?;
        self.stream.get_ref().shutdown(Shutdown::Write)
    }

    /// Shuts both socket halves immediately, **without** flushing — the
    /// chaos-testing path for a client that vanishes mid-conversation
    /// (possibly mid-frame).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket shutdown.
    pub fn abort(&mut self) -> io::Result<()> {
        self.stream.get_ref().shutdown(Shutdown::Both)
    }
}

/// The buffered receiving half of a split [`MapClient`].
#[derive(Debug)]
pub struct RecvHalf {
    stream: BufReader<TcpStream>,
}

impl RecvHalf {
    /// Reads the next response frame.
    ///
    /// # Errors
    ///
    /// Wire-level read/decode failures.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        Response::decode(&read_frame(&mut self.stream)?)
    }

    /// Arms (or clears) a receive timeout so a receiver can poll instead
    /// of blocking forever on a peer that stopped answering.
    ///
    /// # Errors
    ///
    /// I/O errors from configuring the socket.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }
}
