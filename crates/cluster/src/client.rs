//! The client half of the access protocol (Sec. IV-A2): the cached
//! local index, and the life-cycle of one request.
//!
//! Clients cache the inter-node → owner map with a version number and a
//! lease (the GFS-style consistency mechanisms the paper borrows). A
//! lookup first consults the cache; on a hit the query goes straight to
//! the owning MDS, otherwise the target is assumed to live in the
//! replicated global layer and any MDS will do.
//!
//! What happens next — follow a redirect, back off after a lost or
//! unanswered attempt, give up on the attempt budget or the deadline —
//! is `RequestMachine`, which does no I/O and reads no clock: a
//! transport ([`crate::live::LiveClient`] over channels, the
//! [`crate::net::run_load`] workers over TCP) sends what it is told to,
//! reports how the attempt ended and sleeps the backoff it is handed.

use std::time::{Duration, Instant};

use d2tree_core::LocalIndex;
use d2tree_metrics::MdsId;
use d2tree_namespace::{NamespaceTree, NodeId};
use d2tree_telemetry::trace::{span_names, ArgKey, Span, SpanCtx, Tracer};
use d2tree_telemetry::FaultKind;
use d2tree_workload::Operation;
use rand::Rng;

use crate::message::{Request, RequestId, Response, ResponseBody};

/// Where the client should send a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDecision {
    /// A cached inter-node entry points at this owner.
    Owner(MdsId),
    /// No prefix matched: the target is in the global layer, pick any MDS.
    AnyMds,
    /// The cached index lease expired; refresh before routing.
    StaleCache,
}

impl RouteDecision {
    /// Code used for destinations forced by a server redirect, which
    /// never go through [`ClientCache::route`].
    pub const REDIRECT_CODE: u64 = 3;

    /// Stable numeric code used as a trace-span annotation:
    /// 0 owner-routed, 1 any-MDS, 2 stale cache,
    /// [`REDIRECT_CODE`](Self::REDIRECT_CODE) redirect-forced.
    #[must_use]
    pub fn code(&self) -> u64 {
        match self {
            RouteDecision::Owner(_) => 0,
            RouteDecision::AnyMds => 1,
            RouteDecision::StaleCache => 2,
        }
    }
}

/// Hit/miss counters of a client's index cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Routes answered from the cached index within its lease.
    pub hits: u64,
    /// Routes that found the cache stale and forced a refresh.
    pub misses: u64,
}

/// Unified client retry policy: how often, how patiently and for how
/// long a client keeps re-issuing one request.
///
/// A request fails when *either* budget is exhausted — `max_attempts`
/// bounds the number of sends, `deadline` bounds total elapsed time
/// (so a storm of fast redirects cannot spin forever, and a lossy
/// network cannot hold a caller hostage). Between failed attempts the
/// client sleeps an exponentially growing backoff with uniform jitter;
/// see [`RetryPolicy::backoff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of sends per request.
    pub max_attempts: usize,
    /// First backoff step; doubles per failed attempt (capped at 16×).
    pub base_backoff: Duration,
    /// Upper bound of the uniform jitter added to each backoff.
    pub jitter: Duration,
    /// Wall-clock budget for the whole request, retries included.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 40,
            base_backoff: Duration::from_millis(1),
            jitter: Duration::from_millis(2),
            deadline: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): exponential in
    /// `base_backoff` (doubling, capped at 16×) plus a uniform jitter
    /// draw in `0..=jitter`.
    pub fn backoff(&self, attempt: usize, rng: &mut impl Rng) -> Duration {
        let exp = self.base_backoff * (1u32 << attempt.min(4));
        let jitter_us = self.jitter.as_micros() as u64;
        let jitter = if jitter_us == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(rng.gen_range(0..=jitter_us))
        };
        exp + jitter
    }
}

/// Errors a client can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The attempt budget ran out, but at least one server responded
    /// along the way (redirect storms, mid-fail-over races).
    RetriesExhausted {
        /// Attempts made.
        attempts: usize,
    },
    /// The attempt budget ran out without a single response — every
    /// attempt timed out (the cluster looks entirely down or
    /// partitioned away).
    Timeout {
        /// Attempts made, all of which timed out.
        attempts: usize,
    },
    /// The [`RetryPolicy::deadline`] elapsed before the request
    /// completed, regardless of attempts left.
    DeadlineExceeded {
        /// Total time spent on the request.
        elapsed: Duration,
    },
    /// The target node has no assignment anywhere.
    NotFound,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted { attempts } => {
                write!(f, "request failed after {attempts} attempts")
            }
            ClientError::Timeout { attempts } => {
                write!(f, "no server responded in {attempts} attempts")
            }
            ClientError::DeadlineExceeded { elapsed } => {
                write!(f, "request deadline exceeded after {elapsed:?}")
            }
            ClientError::NotFound => f.write_str("target metadata not found"),
        }
    }
}

impl std::error::Error for ClientError {}

/// How one attempt ended, as the transport saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The server answered the request.
    Served(Response),
    /// The server named the owner to ask instead.
    Redirect(MdsId),
    /// The server has no assignment for the target.
    NotFound,
    /// No answer within the transport's timeout, or no connection.
    TimedOut,
    /// The request or its answer was lost or garbled on the way.
    Lost,
}

impl Outcome {
    /// The `outcome` annotation of the attempt's span.
    fn code(&self) -> u64 {
        match self {
            Outcome::Served(_) => 0,
            Outcome::Redirect(_) => 1,
            Outcome::NotFound => 2,
            Outcome::TimedOut => 3,
            Outcome::Lost => 4,
        }
    }
}

impl From<Response> for Outcome {
    fn from(resp: Response) -> Self {
        match resp.body {
            ResponseBody::Served { .. } => Outcome::Served(resp),
            ResponseBody::Redirect { owner } => Outcome::Redirect(owner),
            ResponseBody::NotFound => Outcome::NotFound,
        }
    }
}

/// What the transport does after reporting an [`Outcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// The request is over.
    Done(Result<Response, ClientError>),
    /// Sleep `backoff` (only a failed attempt carries one; a redirect
    /// is fresh routing and goes at once), then make another attempt —
    /// at `forced` when a redirect named the owner, else wherever the
    /// transport's own routing points.
    Again {
        backoff: Option<Duration>,
        forced: Option<MdsId>,
    },
}

/// The life-cycle of one client request under a [`RetryPolicy`], with
/// no I/O and no clock of its own: [`attempt`](Self::attempt) builds the
/// wire request of the next try, [`outcome`](Self::outcome) takes how
/// it ended and the time, and answers with the next [`Step`]. A sampled
/// request records one `attempt` span per try and one root `op` span
/// when it is over; its trace context rides every request it builds.
pub(crate) struct RequestMachine<'t> {
    id: RequestId,
    op: Operation,
    policy: RetryPolicy,
    /// Origin of [`RetryPolicy::deadline`].
    started: Instant,
    hops: u32,
    not_found_streak: usize,
    got_response: bool,
    backoffs: usize,
    attempts: usize,
    /// Tracer, root context and `op` span start of a sampled request.
    trace: Option<(&'t Tracer, SpanCtx, u64)>,
    /// Destination, route code and start of the attempt in flight.
    in_flight: (u16, u64, u64),
}

impl<'t> RequestMachine<'t> {
    /// A request for `op` issued at `now`; sampled by `tracer`, if any.
    pub(crate) fn new(
        id: RequestId,
        op: Operation,
        policy: RetryPolicy,
        now: Instant,
        tracer: Option<&'t Tracer>,
    ) -> Self {
        RequestMachine {
            id,
            op,
            policy,
            started: now,
            hops: 0,
            not_found_streak: 0,
            got_response: false,
            backoffs: 0,
            attempts: 0,
            trace: tracer.and_then(|tr| tr.begin().map(|ctx| (tr, ctx, tr.now_us()))),
            in_flight: (0, 0, 0),
        }
    }

    /// The operation being executed.
    pub(crate) fn op(&self) -> Operation {
        self.op
    }

    /// Starts an attempt at server `dest`, chosen by `route` (a
    /// [`RouteDecision`] code), and returns the request to send.
    pub(crate) fn attempt(&mut self, dest: u16, route: u64) -> Request {
        let start = self.trace.map_or(0, |(tr, _, _)| tr.now_us());
        self.in_flight = (dest, route, start);
        Request {
            id: self.id,
            kind: self.op.kind,
            target: self.op.target,
            hops: self.hops,
            trace: self.trace.map(|(_, ctx, _)| (ctx.trace.0, ctx.span.0)),
        }
    }

    /// Ends the attempt in flight: `outcome` at time `now`, behind an
    /// injected `fault` if the transport has a fault plan.
    pub(crate) fn outcome(
        &mut self,
        outcome: Outcome,
        fault: Option<FaultKind>,
        now: Instant,
        rng: &mut impl Rng,
    ) -> Step {
        if let Some((tr, ctx, _)) = self.trace {
            let (dest, route, start) = self.in_flight;
            let mut span = Span::child(
                ctx,
                tr.next_span(ctx.trace),
                span_names::ATTEMPT,
                start,
                tr.now_us().saturating_sub(start),
            )
            .on_mds(dest)
            .with_arg(ArgKey::Route, route)
            .with_arg(ArgKey::Outcome, outcome.code());
            span.fault = fault;
            tr.record(span);
        }
        self.attempts += 1;
        let mut forced = None;
        match outcome {
            Outcome::Served(resp) => return self.done(Ok(resp)),
            Outcome::Redirect(owner) => {
                self.got_response = true;
                self.hops += 1;
                forced = Some(owner);
            }
            Outcome::NotFound => {
                self.got_response = true;
                self.not_found_streak += 1;
                if self.not_found_streak >= 3 {
                    return self.done(Err(ClientError::NotFound));
                }
                // Possibly mid-fail-over: back off and re-route.
                self.backoffs += 1;
            }
            // A dead or overloaded server, or a lossy link; placement
            // and index may be changing under us.
            Outcome::TimedOut | Outcome::Lost => self.backoffs += 1,
        }
        if self.attempts >= self.policy.max_attempts {
            let attempts = self.attempts;
            return self.done(Err(if self.got_response {
                ClientError::RetriesExhausted { attempts }
            } else {
                ClientError::Timeout { attempts }
            }));
        }
        let elapsed = now.saturating_duration_since(self.started);
        if elapsed >= self.policy.deadline {
            return self.done(Err(ClientError::DeadlineExceeded { elapsed }));
        }
        // A redirect is fresh routing and goes at once; everything else
        // that got here is a failed attempt and waits.
        let backoff = forced.is_none().then(|| {
            let pause = self.policy.backoff(self.backoffs - 1, rng);
            pause.min(self.policy.deadline - elapsed)
        });
        Step::Again { backoff, forced }
    }

    fn done(&self, result: Result<Response, ClientError>) -> Step {
        if let Some((tr, ctx, start)) = self.trace {
            let span = Span::root(
                ctx,
                span_names::OP,
                start,
                tr.now_us().saturating_sub(start),
            )
            .with_arg(ArgKey::Target, self.op.target.index() as u64)
            .with_arg(ArgKey::Kind, crate::sim::op_kind_code(self.op.kind));
            tr.record(match &result {
                Ok(resp) => span.with_arg(ArgKey::Hops, u64::from(resp.hops)),
                Err(_) => span.with_arg(ArgKey::Error, 1),
            });
        }
        Step::Done(result)
    }
}

/// A client's cached copy of the local index.
///
/// # Example
///
/// ```
/// use d2tree_cluster::ClientCache;
/// use d2tree_core::LocalIndex;
/// use d2tree_metrics::MdsId;
/// use d2tree_namespace::{NamespaceTree, NodeKind};
///
/// # fn main() -> Result<(), d2tree_namespace::TreeError> {
/// let mut tree = NamespaceTree::new();
/// let sub = tree.create(tree.root(), "project", NodeKind::Directory)?;
/// let mut index = LocalIndex::new();
/// index.insert(sub, MdsId(2));
///
/// let mut cache = ClientCache::new(1_000);
/// cache.refresh(index, 0);
/// use d2tree_cluster::client::RouteDecision;
/// assert_eq!(cache.route(&tree, sub, 10), RouteDecision::Owner(MdsId(2)));
/// assert_eq!(cache.route(&tree, tree.root(), 10), RouteDecision::AnyMds);
/// assert_eq!(cache.route(&tree, sub, 2_000), RouteDecision::StaleCache);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ClientCache {
    index: LocalIndex,
    lease_ms: u64,
    fetched_at_ms: u64,
    has_index: bool,
    hits: u64,
    misses: u64,
}

impl ClientCache {
    /// Creates an empty cache whose entries stay fresh for `lease_ms`.
    #[must_use]
    pub fn new(lease_ms: u64) -> Self {
        ClientCache {
            index: LocalIndex::new(),
            lease_ms,
            fetched_at_ms: 0,
            has_index: false,
            hits: 0,
            misses: 0,
        }
    }

    /// Installs a fresh index copy fetched at `now_ms`.
    pub fn refresh(&mut self, index: LocalIndex, now_ms: u64) {
        self.index = index;
        self.fetched_at_ms = now_ms;
        self.has_index = true;
    }

    /// The cached index version, if any copy is installed.
    #[must_use]
    pub fn version(&self) -> Option<u64> {
        self.has_index.then(|| self.index.version())
    }

    /// Whether the cached copy is within its lease at `now_ms`.
    #[must_use]
    pub fn is_fresh(&self, now_ms: u64) -> bool {
        self.has_index && now_ms.saturating_sub(self.fetched_at_ms) < self.lease_ms
    }

    /// Routes a query per the paper's client logic, recording hit/miss
    /// statistics.
    pub fn route(&mut self, tree: &NamespaceTree, target: NodeId, now_ms: u64) -> RouteDecision {
        if !self.is_fresh(now_ms) {
            self.misses += 1;
            return RouteDecision::StaleCache;
        }
        match self.index.locate(tree, target) {
            Some((_, owner)) => {
                self.hits += 1;
                RouteDecision::Owner(owner)
            }
            None => {
                self.hits += 1;
                RouteDecision::AnyMds
            }
        }
    }

    /// Hit/miss counters accumulated by [`ClientCache::route`].
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2tree_namespace::NodeKind;

    fn setup() -> (NamespaceTree, NodeId, LocalIndex) {
        let mut tree = NamespaceTree::new();
        let sub = tree.create(tree.root(), "s", NodeKind::Directory).unwrap();
        let leaf = tree.create(sub, "leaf", NodeKind::File).unwrap();
        let mut index = LocalIndex::new();
        index.insert(sub, MdsId(1));
        let _ = leaf;
        (tree, sub, index)
    }

    #[test]
    fn empty_cache_is_stale() {
        let (tree, sub, _) = setup();
        let mut cache = ClientCache::new(100);
        assert_eq!(cache.route(&tree, sub, 0), RouteDecision::StaleCache);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
        assert_eq!(cache.version(), None);
    }

    #[test]
    fn routes_through_subtree_prefix() {
        let (tree, sub, index) = setup();
        let leaf = tree.resolve_str("/s/leaf").unwrap();
        let mut cache = ClientCache::new(100);
        cache.refresh(index, 0);
        assert_eq!(cache.route(&tree, leaf, 50), RouteDecision::Owner(MdsId(1)));
        assert_eq!(cache.route(&tree, sub, 50), RouteDecision::Owner(MdsId(1)));
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 0 });
    }

    #[test]
    fn lease_expiry_forces_refresh() {
        let (tree, sub, index) = setup();
        let mut cache = ClientCache::new(100);
        cache.refresh(index.clone(), 0);
        assert!(cache.is_fresh(99));
        assert!(!cache.is_fresh(100));
        assert_eq!(cache.route(&tree, sub, 150), RouteDecision::StaleCache);
        cache.refresh(index, 150);
        assert_eq!(cache.route(&tree, sub, 160), RouteDecision::Owner(MdsId(1)));
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
            jitter: Duration::ZERO,
            deadline: Duration::from_secs(1),
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff(0, &mut rng), Duration::from_millis(1));
        assert_eq!(policy.backoff(1, &mut rng), Duration::from_millis(2));
        assert_eq!(policy.backoff(3, &mut rng), Duration::from_millis(8));
        // Capped at 16x base from attempt 4 on.
        assert_eq!(policy.backoff(4, &mut rng), Duration::from_millis(16));
        assert_eq!(policy.backoff(20, &mut rng), Duration::from_millis(16));
    }

    #[test]
    fn backoff_jitter_is_bounded() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let policy = RetryPolicy {
            jitter: Duration::from_millis(3),
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let d = policy.backoff(0, &mut rng);
            assert!(d >= policy.base_backoff);
            assert!(d <= policy.base_backoff + policy.jitter);
        }
    }

    /// How a scripted request went: its result, the backoff handed out
    /// after each attempt that was not the last, and the hop count each
    /// request carried.
    type Run = (
        Result<Response, ClientError>,
        Vec<Option<Duration>>,
        Vec<u32>,
    );

    /// Feeds `script` to a fresh machine, one outcome per `tick` of a
    /// clock that exists only as arithmetic on one `Instant`; the
    /// script's last outcome must be the one that ends the request.
    fn drive(policy: RetryPolicy, tick: Duration, script: &[Outcome]) -> Run {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let op = Operation {
            target: NodeId::from_index(3),
            kind: d2tree_workload::OpKind::Read,
        };
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(9);
        let mut machine = RequestMachine::new(RequestId(1), op, policy, t0, None);
        let (mut backoffs, mut hops) = (Vec::new(), Vec::new());
        let mut forced = None;
        for (i, &outcome) in script.iter().enumerate() {
            let req = machine.attempt(forced.map_or(0, |m: MdsId| m.0), 0);
            assert_eq!(
                (req.id, req.target, req.trace),
                (RequestId(1), op.target, None)
            );
            hops.push(req.hops);
            match machine.outcome(outcome, None, t0 + tick * (i as u32 + 1), &mut rng) {
                Step::Done(result) => {
                    assert_eq!(i + 1, script.len(), "over before the script was");
                    return (result, backoffs, hops);
                }
                Step::Again { backoff, forced: f } => {
                    // Only a redirect names the next destination.
                    let owner = match outcome {
                        Outcome::Redirect(owner) => Some(owner),
                        _ => None,
                    };
                    assert_eq!(f, owner);
                    backoffs.push(backoff);
                    forced = f;
                }
            }
        }
        panic!("the script ended and the request had not: {backoffs:?}");
    }

    #[test]
    fn request_machine_follows_its_table() {
        use Outcome::{Lost, NotFound, Redirect, Served, TimedOut};
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            jitter: Duration::ZERO,
            deadline: Duration::from_secs(1),
        };
        let ms = Duration::from_millis;
        let served = |hops| Response {
            id: RequestId(1),
            from: MdsId(1),
            body: ResponseBody::Served {
                node: NodeId::from_index(3),
            },
            hops,
        };
        let there = Redirect(MdsId(1));
        let table: Vec<(&str, Vec<Outcome>, Run)> = vec![
            (
                "every attempt unanswered: Timeout at the attempt budget",
                vec![TimedOut, Lost, TimedOut, TimedOut],
                (
                    Err(ClientError::Timeout { attempts: 4 }),
                    vec![Some(ms(1)), Some(ms(2)), Some(ms(4))],
                    vec![0; 4],
                ),
            ),
            (
                "a redirect storm: servers answered, so RetriesExhausted",
                vec![there; 4],
                (
                    Err(ClientError::RetriesExhausted { attempts: 4 }),
                    vec![None; 3],
                    vec![0, 1, 2, 3],
                ),
            ),
            (
                "three not-founds: NotFound, ahead of the attempt budget",
                vec![NotFound; 3],
                (
                    Err(ClientError::NotFound),
                    vec![Some(ms(1)), Some(ms(2))],
                    vec![0; 3],
                ),
            ),
            (
                "two not-founds, then served",
                vec![NotFound, NotFound, Served(served(0))],
                (Ok(served(0)), vec![Some(ms(1)), Some(ms(2))], vec![0; 3]),
            ),
            (
                "a redirect is followed at once and counts one hop",
                vec![there, Served(served(1))],
                (Ok(served(1)), vec![None], vec![0, 1]),
            ),
            (
                "a timeout costs exactly one backoff",
                vec![TimedOut, Served(served(0))],
                (Ok(served(0)), vec![Some(ms(1))], vec![0, 0]),
            ),
            (
                "a redirect after a timeout does not wait again",
                vec![TimedOut, there, Served(served(1))],
                (Ok(served(1)), vec![Some(ms(1)), None], vec![0, 0, 1]),
            ),
        ];
        for (name, script, expected) in table {
            assert_eq!(drive(policy, ms(10), &script), expected, "{name}");
        }

        // The deadline: 400 ms a try against a one-second budget ends
        // on the third outcome, whatever the attempt budget still holds,
        // and the backoff before it was cut to the time that remained.
        let patient = RetryPolicy {
            max_attempts: 100,
            base_backoff: ms(300),
            ..policy
        };
        let (result, backoffs, _) = drive(patient, ms(400), &[TimedOut; 3]);
        assert_eq!(
            result,
            Err(ClientError::DeadlineExceeded { elapsed: ms(1200) })
        );
        assert_eq!(backoffs, vec![Some(ms(300)), Some(ms(200))]);
    }

    #[test]
    fn request_machine_records_one_attempt_span_a_try_under_one_op_root() {
        use d2tree_telemetry::trace::Sampler;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let tracer = Tracer::new(Sampler::always(0));
        let op = Operation {
            target: NodeId::from_index(5),
            kind: d2tree_workload::OpKind::Update,
        };
        let served = Response {
            id: RequestId(7),
            from: MdsId(2),
            body: ResponseBody::Served { node: op.target },
            hops: 1,
        };
        let now = Instant::now();
        let mut rng = StdRng::seed_from_u64(1);
        let mut machine =
            RequestMachine::new(RequestId(7), op, RetryPolicy::default(), now, Some(&tracer));
        let script = [
            (4u16, 0u64, Outcome::TimedOut, Some(FaultKind::Drop)),
            (1, 1, Outcome::Redirect(MdsId(2)), None),
            (
                2,
                RouteDecision::REDIRECT_CODE,
                Outcome::Served(served),
                None,
            ),
        ];
        let mut wire = Vec::new();
        for (dest, route, outcome, fault) in script {
            wire.push(machine.attempt(dest, route).trace);
            let _ = machine.outcome(outcome, fault, now, &mut rng);
        }
        let spans = tracer.drain();
        let root = spans
            .iter()
            .find(|s| s.name == span_names::OP)
            .expect("one op span");
        assert_eq!(root.parent, None);
        let arg = |s: &Span, key| s.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        assert_eq!(arg(root, ArgKey::Target), Some(5));
        assert_eq!(arg(root, ArgKey::Kind), Some(2));
        assert_eq!(arg(root, ArgKey::Hops), Some(1));
        assert_eq!(arg(root, ArgKey::Error), None);
        // Every request carried the root's context, hop after hop.
        assert_eq!(wire, vec![Some((root.trace.0, root.id.0)); 3]);
        let attempts: Vec<_> = spans
            .iter()
            .filter(|s| s.name == span_names::ATTEMPT)
            .map(|s| {
                assert_eq!((s.trace, s.parent), (root.trace, Some(root.id)));
                let (route, outcome) = (arg(s, ArgKey::Route), arg(s, ArgKey::Outcome));
                (s.mds, route, outcome, s.fault)
            })
            .collect();
        assert_eq!(
            attempts,
            vec![
                (Some(4), Some(0), Some(3), Some(FaultKind::Drop)),
                (Some(1), Some(1), Some(1), None),
                (Some(2), Some(3), Some(0), None),
            ]
        );
        assert_eq!(spans.len(), 4);
    }

    #[test]
    fn version_tracks_refreshes() {
        let (_, sub, mut index) = setup();
        let mut cache = ClientCache::new(100);
        cache.refresh(index.clone(), 0);
        let v1 = cache.version().unwrap();
        index.insert(sub, MdsId(3));
        cache.refresh(index, 10);
        assert!(cache.version().unwrap() > v1);
    }
}
