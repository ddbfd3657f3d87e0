//! The traced run's instrumentation: a timing decorator around the engine
//! under test, built only from the repository's public `EngineBackend` and
//! `EngineSession` traits.
//!
//! A [`TracedBackend`] forwards every call to the backend it wraps and
//! records, in a shared [`Tracer`]:
//!
//! * session opens, load batches and queries, with their wall time, split
//!   into the main oracle pass and attribution re-runs (the variants
//!   `without_fault` returns are tagged as attribution);
//! * the *spans* of both: a main-pass span runs from the first session
//!   opened while none was live to the moment the last one closes; an
//!   attribution span runs from the `without_fault` call to the drop of the
//!   variant it returned. Span time not spent in engine calls is oracle work
//!   (canonicalise, transform, compare);
//! * optionally, every statement each session received, in order, so the
//!   SQL layer can be replayed apart from the campaign.

use spatter_core::{BackendError, EngineBackend, EngineSession};
use spatter_sdb::{EngineProfile, FaultId, FaultSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine-call totals of one pass (main or attribution).
#[derive(Debug, Default, Clone)]
pub struct PassCounters {
    /// Sessions opened.
    pub sessions: u64,
    /// Statements sent through `load`.
    pub load_statements: u64,
    /// Time in session open, `load` and session close.
    pub load: Duration,
    /// Queries sent through `run_count` / `run_rows`.
    pub queries: u64,
    /// Time in `run_count` / `run_rows`.
    pub query: Duration,
}

/// One step a session received, kept for the SQL-layer replay.
#[derive(Debug, Clone)]
pub enum Step {
    /// A `load` batch: executed in order, stopping at the first error.
    Load(Vec<String>),
    /// A query: executed whatever its outcome.
    Query(String),
}

/// The statements one session received, with the engine it ran on.
#[derive(Debug, Clone)]
pub struct CapturedSession {
    /// The engine profile.
    pub profile: EngineProfile,
    /// The seeded faults the session's engine carried.
    pub faults: FaultSet,
    /// The session's steps, in order.
    pub steps: Vec<Step>,
}

/// Everything the decorators recorded.
#[derive(Debug, Default)]
pub struct TraceState {
    /// The main oracle pass.
    pub main: PassCounters,
    /// Attribution re-runs.
    pub attribution: PassCounters,
    /// `without_fault` calls (one per attribution re-run).
    pub reruns: u64,
    /// Total main-pass span time.
    pub main_span: Duration,
    /// Total attribution span time.
    pub attribution_span: Duration,
    /// Captured sessions (only when capturing).
    pub captured: Vec<CapturedSession>,
    main_live: usize,
    main_span_start: Option<Instant>,
}

impl TraceState {
    fn pass(&mut self, attribution: bool) -> &mut PassCounters {
        if attribution {
            &mut self.attribution
        } else {
            &mut self.main
        }
    }
}

/// The shared recorder all decorators of one traced round write to.
#[derive(Debug)]
pub struct Tracer {
    capture: bool,
    state: Mutex<TraceState>,
}

impl Tracer {
    /// A fresh tracer; with `capture`, every statement is kept for replay.
    pub fn new(capture: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            capture,
            state: Mutex::new(TraceState::default()),
        })
    }

    fn with<T>(&self, f: impl FnOnce(&mut TraceState) -> T) -> T {
        f(&mut self.state.lock().expect("tracer lock poisoned"))
    }

    /// [`Tracer::with`] for `Drop`, which must not panic: a poisoned lock
    /// (a panic elsewhere while recording) drops the record.
    fn with_in_drop(&self, f: impl FnOnce(&mut TraceState)) {
        if let Ok(mut state) = self.state.lock() {
            f(&mut state);
        }
    }

    /// Takes the recorded state, leaving an empty one.
    pub fn take(&self) -> TraceState {
        self.with(std::mem::take)
    }
}

/// The timing decorator around an engine backend.
#[derive(Debug)]
pub struct TracedBackend {
    inner: Box<dyn EngineBackend>,
    tracer: Arc<Tracer>,
    /// The seeded faults the engine carries, for the replay.
    faults: FaultSet,
    /// Set on the variants `without_fault` returns: when the attribution
    /// re-run they serve began.
    attribution_since: Option<Instant>,
}

impl TracedBackend {
    /// Wraps the engine under test. `faults` is the fault set its engine
    /// carries (empty for fault-free and external engines).
    pub fn new(inner: Box<dyn EngineBackend>, faults: FaultSet, tracer: Arc<Tracer>) -> Self {
        TracedBackend {
            inner,
            tracer,
            faults,
            attribution_since: None,
        }
    }
}

impl EngineBackend for TracedBackend {
    fn profile(&self) -> EngineProfile {
        self.inner.profile()
    }

    fn open_session(&self) -> Result<Box<dyn EngineSession>, BackendError> {
        let attribution = self.attribution_since.is_some();
        let start = Instant::now();
        let opened = self.inner.open_session();
        let spent = start.elapsed();
        let capture = self.tracer.capture.then(|| CapturedSession {
            profile: self.inner.profile(),
            faults: self.faults.clone(),
            steps: Vec::new(),
        });
        let slot = self.tracer.with(|state| {
            let pass = state.pass(attribution);
            pass.sessions += 1;
            pass.load += spent;
            if opened.is_ok() && !attribution {
                if state.main_live == 0 {
                    state.main_span_start = Some(start);
                }
                state.main_live += 1;
            }
            capture.filter(|_| opened.is_ok()).map(|session| {
                state.captured.push(session);
                state.captured.len() - 1
            })
        });
        let inner = opened?;
        Ok(Box::new(TracedSession {
            inner: Some(inner),
            tracer: Arc::clone(&self.tracer),
            attribution,
            slot,
        }))
    }

    fn fault_ids(&self) -> Vec<FaultId> {
        self.inner.fault_ids()
    }

    fn without_fault(&self, fault: FaultId) -> Box<dyn EngineBackend> {
        let since = Instant::now();
        self.tracer.with(|state| state.reruns += 1);
        let mut faults = self.faults.clone();
        faults.disable(fault);
        Box::new(TracedBackend {
            inner: self.inner.without_fault(fault),
            tracer: Arc::clone(&self.tracer),
            faults,
            attribution_since: Some(since),
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn supports_function(&self, function: &str) -> bool {
        self.inner.supports_function(function)
    }
}

impl Drop for TracedBackend {
    fn drop(&mut self) {
        if let Some(since) = self.attribution_since {
            let span = since.elapsed();
            self.tracer
                .with_in_drop(|state| state.attribution_span += span);
        }
    }
}

/// The timing decorator around one session.
struct TracedSession {
    inner: Option<Box<dyn EngineSession>>,
    tracer: Arc<Tracer>,
    attribution: bool,
    slot: Option<usize>,
}

impl TracedSession {
    fn session(&mut self) -> &mut dyn EngineSession {
        self.inner
            .as_deref_mut()
            .expect("the inner session lives until drop")
    }

    fn record(&self, spent: Duration, query: bool, statements: u64, step: impl FnOnce() -> Step) {
        let attribution = self.attribution;
        let slot = self.slot;
        self.tracer.with(|state| {
            let pass = state.pass(attribution);
            if query {
                pass.queries += 1;
                pass.query += spent;
            } else {
                pass.load_statements += statements;
                pass.load += spent;
            }
            if let Some(slot) = slot {
                state.captured[slot].steps.push(step());
            }
        });
    }
}

impl EngineSession for TracedSession {
    fn load(&mut self, statements: &[String]) -> Result<(), BackendError> {
        let start = Instant::now();
        let result = self.session().load(statements);
        let spent = start.elapsed();
        self.record(spent, false, statements.len() as u64, || {
            Step::Load(statements.to_vec())
        });
        result
    }

    fn run_count(&mut self, sql: &str) -> Result<Option<i64>, BackendError> {
        let start = Instant::now();
        let result = self.session().run_count(sql);
        let spent = start.elapsed();
        self.record(spent, true, 1, || Step::Query(sql.to_string()));
        result
    }

    fn run_rows(&mut self, sql: &str) -> Result<Vec<String>, BackendError> {
        let start = Instant::now();
        let result = self.session().run_rows(sql);
        let spent = start.elapsed();
        self.record(spent, true, 1, || Step::Query(sql.to_string()));
        result
    }

    fn engine_time(&self) -> Duration {
        self.inner
            .as_deref()
            .map_or(Duration::ZERO, |session| session.engine_time())
    }
}

impl Drop for TracedSession {
    fn drop(&mut self) {
        let start = Instant::now();
        drop(self.inner.take());
        let end = Instant::now();
        let attribution = self.attribution;
        self.tracer.with_in_drop(|state| {
            state.pass(attribution).load += end - start;
            if !attribution {
                state.main_live -= 1;
                if state.main_live == 0 {
                    if let Some(span_start) = state.main_span_start.take() {
                        state.main_span += end - span_start;
                    }
                }
            }
        });
    }
}
