(** The mapping-query daemon: request handlers, admission control and
    graceful drain on one {!Reactor}, wired around {!Wire},
    {!Singleflight}, {!Admission}, the worker domains of {!Batcher},
    {!Handlers} and {!Store}.

    I/O architecture: the daemon keeps only its handlers and its drain
    policy; its {!Reactor} owns every socket — the listener, a
    self-pipe and all connections — and the poll round over them, on
    the connection code the router and the client share ({!Conn}).
    The read handler answers inline everything that needs no pool
    dispatch — [ping], [stats], [drain], [hello], [ship], and the
    {e warm fast path}: an [analyze] whose verdict is already in the
    {!Store} is encoded straight from the loop, no queue, no worker.
    Everything else is queued and served by a worker domain, one
    request at a time, so the loop's domain never computes a verdict.
    Cold [analyze] requests are coalesced in a {!Singleflight} table
    keyed on the mapping matrix's {!Store.family_key_string}: the
    first request for a matrix is admitted as the group's leader,
    every request for the same matrix arriving while it is in flight
    joins as a follower, and the finishing worker computes without
    reading the store again (the loop's miss already decided that),
    journals the family verdict, and fans one verdict per distinct
    [mu] — and one store append each — out to all of them.  Replies
    append to a reusable per-connection output buffer; the reactor
    flushes it once per read burst, so a pipelined burst costs one
    [write] rather than one per reply, and workers flush their own
    replies and nudge the loop when a socket would block.

    Transports: every connection starts on the v1 JSON-lines dialect;
    a [hello] request ({!Protocol.Hello}) switches it to the v2 binary
    framing when [max_transport] allows ({!Wire}).  A corrupt or
    oversized frame — either dialect — earns one structured
    [parse_error] reply and the connection is dropped.

    Life cycle: {!create} binds the socket and replays the store,
    {!run} blocks in the event loop until a drain completes, and
    {!initiate_drain} (idempotent, thread-safe) starts the shutdown
    sequence — the daemon's drain policy: close the admission queue,
    stop accepting, let the workers finish the already-accepted
    requests (accepted work is answered exactly, and a computed
    [analyze] verdict is journaled as at any other time), flush the
    remaining output for up to 5 s, then close the connections and
    the store.
    Signal handlers must call only {!wake} (a self-pipe write); the
    loop turns the wake-up into [initiate_drain] from a normal
    context.

    Stale sockets: {!create} binds with {!Conn.bind}, which takes over
    a dead socket file but never a live listener or a non-socket.

    Fault injection (armed {!Fault.Plan}, docs/RESILIENCE.md): the
    accept handler consults [daemon.accept] (close the fresh
    connection) on each accepted connection, the read handler
    [conn.read] (transport reset while reading a request) and
    [conn.drop] (hang-up between requests) on every arriving chunk,
    and every reply write consults [conn.write] (swallow the reply and
    shut the connection down).  All four surface to a well-behaved
    client as a dropped connection, never as a corrupt reply; because
    the consults run on the single loop thread (or, for [conn.write],
    at the reply's position in the output stream), they stay ordered
    with the request stream and a seeded plan replays identically.
    The gray [conn.slow] site is consulted at the same loop-ordered
    point, first, but is {e ambient}: a fired consult stalls the loop
    by the plan's delay and is never logged per event
    ({!Fault.stall}).

    Deadlines: an [analyze] / [search] / [simulate] / [replay] whose
    [deadline_ms] is already [<= 0] on arrival (the router stamps the
    {e remaining} budget on forwarded frames, both dialects) is
    answered [deadline_exceeded] before any store lookup or dispatch —
    counted by [server.deadline_exceeded] and the [stats] field.

    Admission: queued compute work passes an AIMD adaptive concurrency
    limiter ({!Limiter}, bounds [[4, 256]], target 250 ms, exported as
    the [admission.limit] gauge) before the queue; the limiter counts
    queued plus running requests, so the queue has no bound of its
    own.  Inline operations — [ping], [stats], [drain], [hello],
    [ship] and both fastpaths — are never gated, so control traffic
    cannot shed behind analyze load.  Loop-inline replies run under their own span
    root, so per-request trace trees are accurate for fastpath work
    too (per-thread span stacks in {!Obs.Trace}). *)

type listen = Conn.listen =
  | Unix_sock of string  (** Path of a Unix-domain socket. *)
  | Tcp of int           (** TCP port on 127.0.0.1; [0] picks a free port. *)

type config = {
  listen : listen;
  jobs : int option;
      (** Pool width ([None]: the runtime's recommended domain count).
          The daemon starts worker domains as it admits requests:
          [max 1 (jobs - 1)] for [analyze] traffic, and at least two
          once it has admitted a [search], [simulate] or [replay], so
          one long request leaves a worker for cold [analyze] work; a
          [search] fans out on the pool. *)
  store_path : string option;
  snapshot_path : string option;
      (** Snapshot the store warm-starts from (and that [compact]
          rotates into): {!Store.open_} consults it on memory misses
          so a compacted store opens in O(1) reads
          (docs/CLUSTER.md). *)
  fsync_every : int;
  max_transport : Wire.version;
      (** Newest dialect [hello] may negotiate: {!Wire.V1} pins the
          server to JSON lines, {!Wire.V2} (the default) also offers
          the binary framing. *)
}

val default_config : listen -> config
(** [jobs = None], no store, no snapshot, [fsync_every = 32],
    [max_transport = V2]. *)

type t

val create : config -> t
(** Bind the socket and open and replay the store; the worker domains
    start with the first admitted request.
    @raise Failure / [Unix.Unix_error] when the socket or store path
    is unusable. *)

val run : t -> unit
(** The blocking event loop; returns once a drain has fully completed
    (store closed, sockets gone). *)

val initiate_drain : t -> unit

val abort : t -> unit
(** SIGKILL-grade shutdown for in-process chaos: refuse new work,
    {e discard} queued requests, stop the loop at once and close every
    connection with its queued reply bytes unsent, without the
    graceful flush {!initiate_drain} performs.  Peers see EOF; acked writes survive
    only as far as the store's [fsync_every] contract already put them
    on disk.  Idempotent and thread-safe. *)

val wake : t -> unit
(** Async-signal-safe drain trigger: one self-pipe write, nothing
    else — safe to call from a [Sys.signal] handler. *)

val port : t -> int option
(** The bound TCP port ([None] for Unix sockets) — useful with
    [Tcp 0]. *)

val store : t -> Store.t option

val worker_deaths : t -> int
(** Worker domains killed (and respawned) by an armed fault plan —
    see {!Batcher.deaths}. *)

val stats_fields : t -> (string * Json.t) list
(** The payload of a [stats] reply: queue depth, accepted / shed /
    served ([batches] and [batched]) / fastpath / worker-death
    counts, singleflight group and coalescing counts, the transport
    policy with the number of binary-negotiated connections, the
    draining flag and store statistics. *)
