(** Deterministic fault injection for the server stack.

    A {!Plan.t} is a seeded, scenario-scripted description of which
    faults fire where: every injection point in the codebase is keyed
    by a {e stable site name} (the closed catalogue in
    {!Plan.site_catalogue}), and the decision "does the [k]-th consult
    of site [s] fault?" is a pure function of [(seed, s, k)] — no
    clocks, no [Random] state — so a plan replays identically across
    runs and across machines.  Armed process-wide with {!Plan.arm},
    consulted by the instrumented code through {!should_fail} /
    {!partial_write} / {!stall}; when no plan is armed every consult is
    a single atomic load returning "no fault".

    Sites are grouped into five {e fault classes}, selected per plan:

    - [io] — storage faults: torn (partial) journal appends
      ([store.write]) and failed fsyncs ([store.fsync]);
    - [conn] — transport faults: connections destroyed at accept
      ([daemon.accept]), reads treated as peer resets ([conn.read]),
      replies dropped with the connection ([conn.write]), and
      connections dropped after a served request ([conn.drop]);
    - [worker] — daemon worker-domain death ([batcher.worker]);
    - [cluster] — serving-tier faults, consulted only by the sharded
      tier (lib/cluster): whole-shard death mid-load ([shard.kill],
      consulted by the cluster chaos driver) and forwarding failures
      at the router ([route.forward], a shed-and-retry on an otherwise
      healthy shard).  Both sites are consulted on single-threaded
      driver/connection paths, so cluster-class fault logs stay
      byte-identical across same-seed runs even though the tier's
      timer-driven health and shipping traffic is not itself
      deterministic (docs/RESILIENCE.md);
    - [latency] — gray failures: seeded {e delays}, not errors.  A
      fired consult stalls the caller by the plan's [delay_ms] instead
      of failing it: the event-loop read path ([conn.slow]), the
      store's fsync interval ([store.fsync_stall]) and each daemon
      worker's pop of a request ([worker.stall]).  Consults go through
      {!delay_ms} / {!stall}, which are {e ambient} — pure decision,
      never logged per event, never charged against [max_faults] — so
      same-seed fault logs stay byte-identical even when hedged
      re-issues or stalled loops make consult interleavings race
      across daemons.  The only logged
      trace is one arm-time event per enabled latency site recording
      the stall magnitude.

    Every fired fault is recorded in the plan's log; {!Plan.events}
    returns it in a canonical order (site, then per-site sequence
    number) and {!Plan.fingerprint} hashes it, which is what the chaos
    harness compares across runs to prove determinism.

    The exception {!Injected} deliberately does not extend any
    existing error type: recovery code matches it explicitly, and an
    escaped injection fails loudly. *)

exception Injected of string
(** Raised (by the instrumented call sites, never by this module's
    consult functions) when a fault fires; the payload is the site
    name. *)

val fnv1a : string -> int
(** The 32-bit FNV-1a hash, in [0 .. 2^32 - 1]: fault decisions and
    plan fingerprints, the store journal's record CRCs, the snapshot
    index CRC and the cluster ring's points all use it. *)

val fsync_dir : string -> unit
(** [fsync_dir path] fsyncs the directory holding [path], which makes
    a create, truncate or rename of [path] durable: without it the
    change can be lost on power failure even though the data blocks
    made it.  Best effort: errors are ignored, since some filesystems
    refuse fsync on a directory. *)

module Plan : sig
  type t

  type event = {
    site : string;   (** Site name from {!site_catalogue}. *)
    seq : int;       (** 1-based per-site consult number that fired. *)
    action : string; (** What was injected, e.g. [fail] or [partial:12/57]. *)
  }

  val site_catalogue : (string * string) list
  (** The closed [(site, class)] catalogue listed above.  Consulting a
      name outside it never faults; adding a site means extending this
      list (and docs/RESILIENCE.md). *)

  val classes : string list
  (** [["io"; "conn"; "worker"; "cluster"; "latency"]]. *)

  val make :
    ?rate:float ->
    ?delay_ms:int ->
    ?max_faults:int ->
    seed:int ->
    classes:string list ->
    unit ->
    t
  (** A plan firing each enabled site's consults independently with
      probability [rate] (default [0.1]), decided by a hash of
      [(seed, site, consult#)].  [delay_ms] (default 25) is the stall
      applied by fired latency consults.  [max_faults] caps the total
      injections (the latency sites are exempt — they are ambient, not
      budgeted).
      @raise Invalid_argument on an unknown class, a rate outside
      [0, 1], or a negative [delay_ms]. *)

  val arm : t -> unit
  (** Install the plan process-wide (replacing any armed plan) and log
      one arm event per enabled latency site.
      Arming the same plan twice continues its counters — make a fresh
      plan per scenario. *)

  val disarm : unit -> unit
  val armed : unit -> bool

  val events : t -> event list
  (** Everything that fired so far, sorted by [(site, seq)] — the
      canonical replay log. *)

  val log_lines : t -> string list
  (** {!events} rendered one per line ([site#seq action]). *)

  val fingerprint : t -> string
  (** Hex hash of {!log_lines}; equal fingerprints mean identical
      fault logs. *)

  val faults_injected : t -> int

  val delays_injected : t -> int
  (** How many latency consults fired (stalls applied).  Ambient
      bookkeeping only — delays are never logged per event and never
      count toward [max_faults] or {!faults_injected}. *)
end

val should_fail : string -> bool
(** Consult a site: [true] when the armed plan fires a fault here (the
    event is logged; the caller performs the failure, typically by
    raising {!Injected} or dropping the operation).  Always [false]
    with no armed plan. *)

val partial_write : string -> int -> int option
(** [partial_write site len]: like {!should_fail}, but for torn-write
    sites — [Some n] with [0 <= n < len] asks the caller to write only
    the first [n] of [len] bytes and then fail.  The prefix length is
    derived from the same [(seed, site, consult#)] hash. *)

val delay_ms : string -> int option
(** Consult a latency site: [Some ms] when the armed plan fires a
    stall of [ms] milliseconds here (the caller sleeps), [None]
    otherwise.  Ambient: the decision is the same pure function of
    [(seed, site, consult#)], but firings are neither logged per event
    nor charged against the fault budget. *)

val stall : string -> unit
(** [stall site] consults {!delay_ms} and sleeps the fired stall on
    the calling thread (no-op when nothing fires).  This is what the
    instrumented sites call: [conn.slow] on the event loop after a
    received chunk, [store.fsync_stall] when the fsync interval is
    due, [worker.stall] once per popped request. *)
