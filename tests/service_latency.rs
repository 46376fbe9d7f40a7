//! Loopback round-trip latency of the protocol's TCP endpoints.
//!
//! A `Hello` round trip on loopback costs well under a millisecond of
//! work. If any endpoint sends a line as two writes (the JSON, then the
//! `\n`) without `TCP_NODELAY`, the second write waits for the peer's
//! delayed ACK and each round trip stalls for tens of milliseconds.
//! These tests pin the median of 20 sequential round trips below 10 ms
//! for each client the daemon speaks to: a bare socket that writes each
//! request in one piece (so only the server's framing is under test),
//! the polite [`Client`], and the cluster coordinator's [`WireClient`].

use covern::service::client::Client;
use covern::service::cluster::WireClient;
use covern::service::dispatch::{Service, ServiceConfig};
use covern::service::protocol::{decode, encode_line, Command, Reply, Request, Response};
use covern::service::transport::{serve_tcp, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 20;
const MEDIAN_LIMIT: Duration = Duration::from_millis(10);

fn start() -> (TcpServer, SocketAddr) {
    let server = serve_tcp(Service::new(ServiceConfig::default()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    (server, addr)
}

fn stop(server: TcpServer, addr: SocketAddr) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    server.join();
}

/// Times `ROUND_TRIPS` sequential calls of `round_trip` and asserts
/// their median is under [`MEDIAN_LIMIT`].
fn assert_fast_median(what: &str, mut round_trip: impl FnMut()) {
    let mut samples: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let t0 = Instant::now();
            round_trip();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[ROUND_TRIPS / 2];
    assert!(
        median < MEDIAN_LIMIT,
        "{what}: median Hello round trip {median:?} >= {MEDIAN_LIMIT:?} (samples {samples:?})"
    );
}

#[test]
fn raw_socket_hello_round_trips_are_fast() {
    let (server, addr) = start();
    // No TCP_NODELAY here: a client that writes each line in one piece
    // must not need it.
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut id = 0;
    assert_fast_median("raw socket", || {
        id += 1;
        writer.write_all(&encode_line(&Request::new(id, Command::Hello)).unwrap()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response: Response = decode(&line).unwrap();
        assert_eq!(response.id, id);
        assert!(matches!(response.reply, Reply::Hello(_)), "{response:?}");
    });
    stop(server, addr);
}

#[test]
fn client_hello_round_trips_are_fast() {
    let (server, addr) = start();
    let mut client = Client::connect(addr).unwrap();
    assert_fast_median("Client", || {
        client.hello().unwrap();
    });
    stop(server, addr);
}

#[test]
fn wire_client_hello_round_trips_are_fast() {
    let (server, addr) = start();
    let mut wire = WireClient::connect(&addr.to_string(), Duration::from_secs(10)).unwrap();
    assert_fast_median("WireClient", || wire.hello().unwrap());
    stop(server, addr);
}
