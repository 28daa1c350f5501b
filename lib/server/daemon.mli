(** The mapping-query daemon: a poll-based event loop, admission
    control and graceful drain, wired around {!Wire}, {!Singleflight},
    {!Admission}, {!Batcher}, {!Handlers} and {!Store}.

    I/O architecture: one event-loop thread owns every socket, on the
    connection code it shares with the cluster router ({!Conn}).  It
    polls ({!Poll}) the listener, a self-pipe and all connections;
    accepts until the listener would block; reads nonblocking chunks
    into each connection's {!Wire.decoder}; and answers inline
    everything that needs no pool dispatch — [ping], [stats], [drain],
    [hello], [ship], and the {e warm fast path}: an [analyze] whose verdict is
    already in the {!Store} is encoded straight from the loop, no
    queue, no batcher.  Cold [analyze] requests are coalesced in a
    {!Singleflight} table keyed on the 32-bit {!Store.key_hash}
    content hash (full {!Store.key_string} confirmation, so colliding
    hashes never share a verdict): the first request for a key is
    admitted as the group's leader, every identical request arriving
    while it is in flight joins as a follower, and the finishing
    worker fans one verdict — and one store append — out to all of
    them.  Replies append to a reusable per-connection output buffer
    and flush opportunistically, so pipelined bursts cost one [write]
    per readiness event rather than one per reply.

    Transports: every connection starts on the v1 JSON-lines dialect;
    a [hello] request ({!Protocol.Hello}) switches it to the v2 binary
    framing when [max_transport] allows ({!Wire}).  A corrupt or
    oversized frame — either dialect — earns one structured
    [parse_error] reply and the connection is dropped.

    Life cycle: {!create} binds the socket and replays the store,
    {!run} blocks in the event loop until a drain completes, and
    {!initiate_drain} (idempotent, thread-safe) starts the shutdown
    sequence: cancel every in-flight {!Engine.Budget}, close the
    admission queue, stop accepting, let the workers finish the
    already-accepted requests (their replies still go out — cancelled
    budgets make them bounded rather than lost), flush the remaining
    output, then shut the connections down and flush the store.
    Signal handlers must call only {!wake} (a self-pipe write); the
    loop turns the wake-up into [initiate_drain] from a normal
    context.

    Stale sockets: {!create} binds with {!Conn.bind}, which takes over
    a dead socket file but never a live listener or a non-socket.

    Fault injection (armed {!Fault.Plan}, docs/RESILIENCE.md): the
    loop consults [daemon.accept] (close the fresh connection),
    [conn.read] (transport reset while reading a request) and
    [conn.drop] (hang-up between requests) on every arriving chunk,
    and every reply write consults [conn.write] (swallow the reply and
    shut the connection down).  All four surface to a well-behaved
    client as a dropped connection, never as a corrupt reply; because
    the consults run on the single loop thread (or, for [conn.write],
    at the reply's position in the output stream), they stay ordered
    with the request stream and a seeded plan replays identically —
    the event-loop rewrite did not change this contract.  The gray
    [conn.slow] site is consulted at the same loop-ordered point but
    is {e ambient}: a fired consult stalls the loop by the plan's
    delay and is never logged per event ({!Fault.stall}).

    Deadlines: an [analyze] / [search] / [simulate] / [replay] whose
    [deadline_ms] is already [<= 0] on arrival (the router stamps the
    {e remaining} budget on forwarded frames, both dialects) is
    answered [deadline_exceeded] before any store lookup or dispatch —
    counted by [server.deadline_exceeded] and the [stats] field.

    Admission: queued compute work passes an AIMD adaptive concurrency
    limiter ({!Limiter}, bounds [[admission_min, queue_capacity]],
    exported as the [admission.limit] gauge) before the bounded queue;
    inline operations — [ping], [stats], [drain], [hello], [ship] and
    both fastpaths — are never gated, so control traffic cannot shed
    behind analyze load.  Loop-inline replies run under their own span
    root, so per-request trace trees are accurate for fastpath work
    too (per-thread span stacks in {!Obs.Trace}). *)

type listen = Conn.listen =
  | Unix_sock of string  (** Path of a Unix-domain socket. *)
  | Tcp of int           (** TCP port on 127.0.0.1; [0] picks a free port. *)

type config = {
  listen : listen;
  jobs : int option;       (** Pool domains ([None]: runtime default). *)
  max_inflight : int;      (** Batcher worker threads. *)
  queue_capacity : int;    (** Admission queue bound; beyond it requests shed. *)
  batch_max : int;         (** Largest batch fanned across the pool. *)
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
  admission_min : int;
      (** Floor of the adaptive admission limit ({!Limiter}). *)
  admission_target_ms : float;
      (** Admission-to-completion latency above which the AIMD
          limiter backs off. *)
}

val default_config : listen -> config
(** [jobs = None], [max_inflight = 2], [queue_capacity = 256],
    [batch_max = 32], no store, no snapshot, [fsync_every = 32],
    [max_transport = V2], [admission_min = 4],
    [admission_target_ms = 250.]. *)

type t

val create : config -> t
(** Bind the socket, open and replay the store, start the workers.
    @raise Failure / [Unix.Unix_error] when the socket or store path
    is unusable. *)

val run : t -> unit
(** The blocking event loop; returns once a drain has fully completed
    (store closed, sockets gone). *)

val initiate_drain : t -> unit

val abort : t -> unit
(** SIGKILL-grade shutdown for in-process chaos: refuse new work,
    cancel running budgets, {e discard} queued requests and queued
    reply bytes, and slam every connection without the graceful flush
    {!initiate_drain} performs.  Peers see EOF; acked writes survive
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
(** Batcher workers killed (and respawned) by an armed fault plan —
    see {!Batcher.deaths}. *)

val stats_fields : t -> (string * Json.t) list
(** The payload of a [stats] reply: queue depth, accepted / shed /
    batched / fastpath / worker-death counts, singleflight group and
    coalescing counts, the transport policy with the number of
    binary-negotiated connections, the draining flag and store
    statistics. *)
