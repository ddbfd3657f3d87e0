//! `spatter-sdb-server` for the benchmark: the in-process spatial SQL engine
//! behind line-delimited SQL over stdio, served by
//! `spatter_sdb::server::serve` exactly as the repository's binary of the
//! same name serves it.
//!
//! One addition serves the traced run: when `PERFBENCH_SERVER_STATS` names a
//! directory, the process keeps a file `server-<pid>.stats` there holding
//! the nanoseconds from `main` to its last reply. The file is rewritten in
//! place after every reply, because clients end a session by killing the
//! process. Untraced runs leave the variable unset.

use spatter_sdb::server::{serve, ServerConfig};
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::time::Instant;

/// Standard output, recording the time of each flush `serve` makes (one
/// per reply) into the stats file.
struct StatsOutput<W> {
    inner: W,
    stats: Option<File>,
    start: Instant,
}

impl<W: Write> Write for StatsOutput<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        if let Some(file) = &self.stats {
            // Fixed width, so each rewrite covers the previous one.
            let line = format!("{:>20}\n", self.start.elapsed().as_nanos());
            file.write_all_at(line.as_bytes(), 0)?;
        }
        Ok(())
    }
}

fn main() {
    let start = Instant::now();
    let config = match ServerConfig::from_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("spatter-sdb-server: {message}");
            std::process::exit(2);
        }
    };
    let stats = std::env::var_os("PERFBENCH_SERVER_STATS").map(|dir| {
        let path = std::path::Path::new(&dir).join(format!("server-{}.stats", std::process::id()));
        File::create(&path).unwrap_or_else(|error| {
            eprintln!(
                "spatter-sdb-server: cannot create {}: {error}",
                path.display()
            );
            std::process::exit(1);
        })
    });
    let output = StatsOutput {
        inner: std::io::stdout().lock(),
        stats,
        start,
    };
    if let Err(error) = serve(&config, std::io::stdin().lock(), output) {
        // A broken pipe just means the client went away.
        if error.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("spatter-sdb-server: {error}");
            std::process::exit(1);
        }
    }
}
