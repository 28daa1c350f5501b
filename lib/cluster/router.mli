(** The cluster router: one process that presents N daemon shards as a
    single mapping-query service (docs/CLUSTER.md).

    The router runs on the daemon's event loop, one {!Server.Reactor}
    that owns every socket — the listener, the clients and a pool of
    pipelined upstream connections per shard — on the connection
    plumbing the daemon uses ({!Server.Conn}), so downstream it speaks
    the daemon's versioned wire protocol and every existing client
    works against a router unchanged.  The router keeps only its
    handlers and its drain policy.  Each forwarded request is
    restamped with a router-unique integer id, matched back by that
    id, and re-encoded with the client's id: a
    shard's ['V'] verdict goes back as a ['V'] frame when the client
    asked with an ['A'] frame (as the equivalent JSON reply
    otherwise), a shard's JSON reply goes back restamped.  An
    [analyze] whose values do not fit an ['A'] frame's fixed fields
    travels upstream as its JSON document.  The loop never waits on a
    peer: the reactor watches an upstream connect for writability
    until it completes, and its v2 [hello] is a loop step like any
    read.

    Placement: [analyze] routes by the {e matrix-only}
    {!Server.Store.family_hash} through the consistent-hash {!Ring},
    so a content key and its mu-parametric family records always live
    on the same shard and the daemon's family fastpath stays
    shard-local.  [search]/[simulate]/[replay] round-robin over live
    shards; [ping]/[stats]/[drain]/[hello] answer inline; [ship] is
    rejected with [bad_request] — replication is shard-direct.

    Failover: a monitor thread — the only other thread, since probes,
    journal pumps and promotion catch-up all block — pings every shard
    each [health_interval_ms] and pumps its journal {!Shipper} to the
    follower; when {!Health} crosses [health_threshold] consecutive
    failures the shard is promoted — follower caught up from the
    primary's journal, then installed as the target.  Requests that
    race a dead shard earn retriable [overloaded] replies, which
    {!Server.Client.session} re-issues; acked writes never roll back
    (the chaos harness audits exactly this).

    Gray failures (docs/RESILIENCE.md): the monitor times its pings
    and feeds latency into {!Health}'s EWMA circuit breaker.  While a
    shard's breaker is [Open] — up but slow — its [analyze] traffic
    diverts to the follower, and the stateless round-robin prefers
    shards whose breaker is closed.  Independently, the loop re-issues
    any [analyze] still unanswered after the hedge delay ([Fixed_ms],
    or [Adaptive]: twice the shard's observed p99) on the shard's
    follower with the {e remaining} deadline restamped; the oldest
    pending hedge is the reactor's timer.  The first reply wins
    and the loser is dropped — byte-safe because verdicts are
    deterministic.  Hedging is guarded by a token bucket of
    [hedge_budget] tokens (refilling one budget per second) so a
    melting shard cannot double the fleet's load, and skipped for
    promoted shards, expired deadlines and shards without a follower.

    Fault sites (class [cluster], docs/RESILIENCE.md): [route.forward]
    is consulted once per forwarded request on the loop thread, so a
    single-driver chaos run replays deterministically; hedge
    re-issues never consult it. *)

type shard_spec = {
  primary : Server.Client.addr;
  follower : Server.Client.addr option;
      (** Promotion target; a shard without one stays down when its
          primary dies. *)
  journal : string option;
      (** The primary's store journal path — the shipping source.
          Required for replication (with [follower]); [None] disables
          shipping for this shard. *)
}

type hedge_policy =
  | No_hedge          (** Never re-issue; one upstream copy per request. *)
  | Fixed_ms of int   (** Hedge after a fixed delay. *)
  | Adaptive
      (** Hedge after twice the shard's observed p99 first-reply
          latency (64-sample ring; 10 ms before any sample). *)

type config = {
  listen : Server.Daemon.listen;
  shards : shard_spec list;
  pool_size : int;            (** Upstream connections per shard (each pool). *)
  shard_transport : Server.Wire.version;  (** Dialect towards the shards. *)
  max_transport : Server.Wire.version;    (** Newest dialect clients may negotiate. *)
  health_interval_ms : int;
  health_threshold : int;
  vnodes : int;               (** Ring points per shard ({!Ring.make}). *)
  hedge : hedge_policy;
  hedge_budget : int;
      (** Hedge token-bucket capacity (and per-second refill);
          [<= 0] disables hedging like [No_hedge]. *)
  latency_limit_ms : float;
      (** {!Health} breaker threshold on the probe-latency EWMA;
          [<= 0] disables the breaker. *)
}

val default_config : Server.Daemon.listen -> shard_spec list -> config
(** [pool_size = 2], both transports {!Server.Wire.V2}, 1 s health
    interval, threshold 3, 64 vnodes, [Adaptive] hedging with budget
    64, breaker limit 500 ms. *)

type t

val create : config -> t
(** Bind the listening socket (same stale-socket policy as the
    daemon) and resolve the shard addresses, once (a [`Tcp] host that
    does not resolve is treated as unreachable); upstream connections
    are opened lazily on first use.
    @raise Invalid_argument on an empty shard list,
    @raise Failure / [Unix.Unix_error] when the socket is unusable. *)

val run : t -> unit
(** The blocking event loop; returns once a drain has completed.  The
    drain policy: stop listening, flush every client once and hang
    up, join the monitor, fail the upstream connections, and ship the
    final journal tail to each unpromoted shard's follower. *)

val initiate_drain : t -> unit
val wake : t -> unit
(** Async-signal-safe drain trigger ({!Server.Reactor.wake}). *)

val port : t -> int option
(** The bound TCP port ([None] for Unix sockets). *)

val ring : t -> Ring.t

val promote_shard : t -> int -> bool
(** Promote shard [idx]'s follower in place, synchronously: mark the
    shard down, fail its pooled connections (parked requests complete
    with retriable [overloaded]), catch the follower up from the
    primary's journal, then redirect.  Returns whether the shard is
    serving afterwards ([false] without a follower).  Idempotent.  The
    loop fails the old connections when this call nudges it.  The
    monitor thread uses the same path; the chaos harness calls it
    directly so the kill → promote transition lands at a deterministic
    point in its request stream.
    @raise Invalid_argument on an out-of-range index. *)

val stats_fields : t -> (string * Json.t) list
(** The payload of a [stats] reply: per-shard target/liveness/
    promotion/forwarded/shed/hedges/hedge_wins/breaker/ewma_ms/
    watermark plus accepted, promotions, total hedges and hedge wins,
    and the transport policy. *)
