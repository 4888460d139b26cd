//! The server under test as a child process, and a frame-level client.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cpplookup_server::protocol::{read_frame, write_frame, Request, Response};

/// How long any single wire read or write may block before the run
/// fails instead of hanging.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `cpplookup-serverd`. Dropping it kills the process, waits
/// for it, and joins the thread draining its stderr.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

/// Server flags shared by every start of one workload's server.
#[derive(Clone)]
pub struct ServerSpec {
    pub binary: PathBuf,
    pub tenants: Vec<(String, PathBuf)>,
    pub wal: PathBuf,
    pub io_model: &'static str,
    /// The CPU the server is pinned to, if any.
    pub cpu: Option<usize>,
}

impl ServerSpec {
    /// Spawns the server and waits until it announces its address,
    /// which it does only after replaying its log and preloading
    /// every tenant.
    pub fn spawn(&self) -> Result<ServerProc, String> {
        let mut cmd = Command::new(&self.binary);
        cmd.args(["--addr", "127.0.0.1:0", "--io-model", self.io_model]);
        if self.io_model == "epoll" {
            cmd.args(["--reactors", "1"]);
        }
        cmd.arg("--wal").arg(&self.wal).args(["--fsync-every", "1"]);
        for (name, path) in &self.tenants {
            cmd.arg("--tenant")
                .arg(format!("{name}={}", path.display()));
        }
        if let Some(cpu) = self.cpu {
            // SAFETY: the closure only makes one async-signal-safe call.
            unsafe {
                cmd.pre_exec(move || crate::host::pin_to(cpu));
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.binary.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut said = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("listening on ") {
                        break a.trim().parse::<SocketAddr>().ok();
                    }
                    said.push(line);
                }
                _ => break None,
            }
        };
        let drain = std::thread::spawn(move || for _ in lines {});
        let mut server = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            drain: Some(drain),
        };
        match addr {
            Some(a) => {
                server.addr = a;
                Ok(server)
            }
            None => Err(format!("server did not start: {}", said.join(" / "))),
        }
    }
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One client connection speaking whole frames.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(r),
            writer: BufWriter::new(s),
        })
    }

    /// Sends an encoded request body and reads the decoded response.
    pub fn call(&mut self, body: &[u8]) -> Result<Response, String> {
        write_frame(&mut self.writer, body)
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let reply = read_frame(&mut self.reader).map_err(|e| format!("receive: {e}"))?;
        Response::decode(&reply).map_err(|e| format!("decode: {e}"))
    }

    /// [`call`](Conn::call) on a request, timed from first byte sent to
    /// response decoded.
    pub fn timed(&mut self, req: &Request) -> (Result<Response, String>, Duration) {
        let body = req.encode();
        let t = Instant::now();
        let r = self.call(&body);
        (r, t.elapsed())
    }
}

/// Starts a server and runs `ready` on a fresh connection to it,
/// returning the server and the seconds from spawn until `ready` passed.
pub fn start_until_ready(
    spec: &ServerSpec,
    ready: &mut dyn FnMut(&mut Conn) -> Result<(), String>,
) -> Result<(ServerProc, f64), String> {
    let t = Instant::now();
    let server = spec.spawn()?;
    let mut conn = server.connect()?;
    ready(&mut conn)?;
    Ok((server, t.elapsed().as_secs_f64()))
}
