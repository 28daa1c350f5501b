(** Client for the daemon's versioned wire protocol ({!Wire}),
    doubling as the load generator behind the [client] CLI subcommand,
    the serve bench section and the CI smoke job.

    It runs on the servers' own connection code: a connection is a
    {!Conn.t}, the load generator drives its connections on the
    servers' event loop ({!Reactor}), a single blocking request waits
    in one {!Poll.wait}, and analyze requests go out through
    {!Conn.analyze_request}, the router's encoder.

    Every connection starts on the v1 JSON-lines dialect; passing
    [~transport:Wire.V2] sends the [hello] negotiation frame first and
    switches both directions to the binary framing once the server
    acks it.  {!request} and {!call} send JSON documents, so their
    replies are JSON documents on either dialect. *)

type addr = [ `Unix of string | `Tcp of string * int ]

val sockaddr : addr -> Unix.sockaddr
(** Resolve an address ([`Tcp] hosts through [gethostbyname]).
    @raise Not_found on an unknown host. *)

type conn

val connect : ?transport:Wire.version -> addr -> conn
(** Default transport {!Wire.V1}.
    @raise Unix.Unix_error when the server is not there.
    @raise Failure when the server refuses the requested transport. *)

val request : conn -> Json.t -> Json.t
(** Send one request document, block for the reply.
    @raise Failure on EOF, a corrupt or binary frame, or an
    unparsable reply. *)

val close : conn -> unit

(** {1 Retrying session}

    A [session] wraps the raw connection with the recovery loop a
    fault-injected (or merely unlucky) daemon demands: reconnect on
    any transport failure (renegotiating the transport), re-issue the
    request with the {e same} id, discard replies whose id does not
    echo it (so a late reply to a timed-out earlier attempt is never
    mis-attributed), and back off exponentially with deterministic
    seeded jitter between attempts.  [overloaded] and [draining] error
    replies are also retried; other error replies are returned as-is —
    they are answers, not transport failures.  Analyze requests are
    idempotent (verdicts are deterministic), so re-issue is always
    safe.  See docs/RESILIENCE.md. *)

type retry = {
  max_attempts : int;     (** Total tries, first included (>= 1). *)
  base_delay_ms : float;  (** Backoff before the 2nd try. *)
  max_delay_ms : float;   (** Backoff ceiling. *)
  timeout_ms : float;     (** Bound on each {!Poll.wait}, the hello's too. *)
  retry_seed : int;       (** Seeds the jitter LCG. *)
  retry_budget : int;
      (** Token-bucket capacity bounding {e re-issues} across the whole
          session — the retry-storm guard: once the bucket is empty a
          failed call returns its error instead of hammering a slow
          server.  [<= 0] disables the bucket (unlimited retries, the
          pre-bucket behaviour). *)
  retry_refill_per_s : float;
      (** Continuous bucket refill rate (tokens per second, capped at
          [retry_budget]). *)
}

val default_retry : retry
(** 8 attempts, 1 ms base, 100 ms ceiling, 2 s wait timeout, seed 0,
    retry budget 128 refilling at 64 tokens/s — generous enough that a
    well-behaved session never notices the bucket. *)

type session

val session : ?retry:retry -> ?transport:Wire.version -> addr -> session
(** Lazy: the first {!call} connects (and negotiates [transport],
    default {!Wire.V1}); so does every reconnect after a transport
    failure. *)

val call : session -> Json.t -> (Json.t * int, string) result
(** [call s req] returns [(reply, attempts)] or, after exhausting
    [max_attempts], the last transport error.  A request without an
    ["id"] field gets a session-unique one stamped in. *)

val close_session : session -> unit
(** Drop the current connection (the session may be reused; the next
    {!call} reconnects). *)

(** {1 Load generation}

    [load] replays a deterministic {!Check.Gen.ith} instance stream as
    [analyze] requests over [concurrency] connections, cycling over
    [distinct] instances — so a second pass hits the server's warm
    store.  One {!Reactor} drives every connection: all open before
    the first request (a refused connect or [hello] fails every
    request), each keeps up to [pipeline] requests in flight, and
    replies match back by id in one table (warm replies may overtake
    cold ones).  A dead connection fails what it has in flight; its
    unsent share goes to the live ones.  The drive stops when nothing
    is outstanding.  On {!Wire.V2} the requests go out as binary ['A']
    frames.  With
    [verify] every verdict must equal a direct local
    {!Analysis.check} — a ['V'] frame's {!Protocol.verdict_wire}
    record field by field, a JSON [verdict] object byte for byte —
    and disagreements are counted (the CI smoke job asserts zero). *)

type load_config = {
  requests : int;
  concurrency : int;   (** Connections, all driven from one thread. *)
  distinct : int;      (** Distinct instances in the cycled pool. *)
  seed : int;
  size : int;          (** {!Check.Gen} size parameter. *)
  verify : bool;
  deadline_ms : int option;
  transport : Wire.version;
  pipeline : int;      (** Max requests in flight per connection (>= 1). *)
}

val default_load : load_config
(** 1000 requests, 8 connections, 64 distinct instances, seed 1, size 4,
    verify on, no deadline, v1 transport, pipeline 1. *)

type load_report = {
  sent : int;
  ok : int;
  shed : int;           (** [overloaded] replies. *)
  draining : int;
  deadline_exceeded : int;
      (** [deadline_exceeded] replies — answers (the deadline really was
          spent), not failures. *)
  errors : int;         (** Lost to a connection, or an unexpected reply. *)
  disagreements : int;
  transport : string;   (** Negotiated transport ({!Wire.version_name}). *)
  pipeline : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  wall_s : float;
  rps : float;
}

val load : addr -> load_config -> load_report
(** Latencies additionally feed the [client.request_ms] histogram of
    {!Obs.Metrics}. *)

val load_any : addr list -> load_config -> load_report
(** {!load} with connections round-robined over several addresses — the
    [client --shards] mode: driving a shard fleet (or a router plus
    direct shard sockets) under the same byte-for-byte verification,
    since every reply is checked against a local {!Analysis.check}
    regardless of which server produced it.
    @raise Invalid_argument on an empty address list. *)

val json_of_load_report : load_report -> Json.t

val expected_verdict : Check.Instance.t -> string
(** The verdict bytes a correct server replies for this instance: a
    fault-free direct {!Analysis.check} rendered through
    {!Protocol.wire_of_verdict} and {!Protocol.json_of_wire}.  Every
    verifying caller (the load generator above, the chaos driver)
    compares a reply's [verdict] object against it. *)

val percentile : float array -> float -> float
(** [percentile sorted p]: the nearest-rank [p]-quantile ([p] in
    [[0, 1]]) of an ascending array; [0.] when it is empty. *)
