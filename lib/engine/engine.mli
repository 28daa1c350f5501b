(** Execution substrate for mapping-search queries: a domain-based
    worker pool, content-addressed memo tables over {!Intmat.t}, and
    per-query deadlines/budgets.

    The modules here carry no mapping theory of their own — they make
    the scans of {!Analysis} and {!Search} parallel, cached and
    observable without changing their answers (the caches key on the
    full matrix content, and the pool merges results in deterministic
    input order).  Observability — counters, span timing, pool-width
    gauges — goes through {!Obs}; the emitted names are catalogued in
    [docs/SCHEMA.md]. *)

(** Per-query deadlines and work budgets.  A budget never aborts a
    query: callers poll {!pressed} and degrade gracefully (e.g.
    {!Analysis.check} switches the exact box oracle for the lattice
    oracle and reports the verdict as bounded). *)
module Budget : sig
  type t

  val make : ?deadline_ms:int -> ?max_oracle_calls:int -> unit -> t
  (** [deadline_ms] is wall-clock, measured from this call;
      [max_oracle_calls] caps the number of conflict-oracle
      invocations charged with {!charge_oracle}.  Wall-clock reads go
      through {!Fault.clock_now}, so an armed chaos plan can skew
      deadline arithmetic deterministically (docs/RESILIENCE.md). *)

  val unlimited : t
  (** Never pressed. *)

  val charge_oracle : t -> unit
  val oracle_calls : t -> int
  val elapsed_ms : t -> float

  val cancel : t -> unit
  (** Press the budget immediately, whatever its deadline: every
      subsequent {!pressed} poll answers true, so in-flight queries
      degrade to bounded verdicts and finish fast.  This is the path
      shared by the server's graceful drain and the CLI's SIGINT
      handling.  Cancelling {!unlimited} is a no-op (it is shared by
      every caller that passed no budget). *)

  val cancelled : t -> bool

  val pressed : t -> bool
  (** True once the deadline passed, the oracle budget is spent, or
      the budget was {!cancel}led. *)
end

(** Content-addressed memo tables in front of the expensive kernels:
    the lattice oracle here, and the verdict and family tables of
    {!Analysis}.  Keys are full matrices compared with {!Intmat.equal}
    and hashed entry-by-entry, so structurally equal matrices built by
    different scans share one entry.  Tables are domain-safe
    (mutex-protected); hit/miss counts feed the [cache.<name>.hits] /
    [cache.<name>.misses] counters of {!Obs.Metrics}. *)
module Cache : sig
  type 'v table

  val create_table : string -> 'v table
  (** A fresh matrix-keyed table registered for {!stats}/{!clear}; the
      name keys its hit/miss counters in {!Obs.Metrics}. *)

  val memo : 'v table -> Intmat.t -> (unit -> 'v) -> 'v
  (** [memo tbl key compute] returns the cached value for [key] or runs
      [compute] once and stores the result. *)

  val key_hash : Intmat.t -> int
  (** The content hash the memo tables key on (entry-by-entry over the
      full matrix, in [0 .. max_int]).  Exposed so the persistent
      result store of [lib/server] can address records by the same
      hash the in-memory caches use. *)

  val find_conflict_lattice : mu:int array -> Intmat.t -> Intvec.t option
  (** Memoized {!Conflict.find_conflict_lattice}, keyed on [(T, mu)]. *)

  type stats = { hits : int; misses : int; entries : int }

  val stats : unit -> stats
  (** Aggregate over every registered table since the last {!clear}. *)

  val clear : unit -> unit
  (** Drop all entries and zero the hit/miss counts of every table. *)
end

(** A pool of OCaml 5 domains with deterministic merge: {!Pool.map}
    always returns results in input order, whatever the scheduling, so
    parallel scans are reproducible and agree with the sequential
    reference (property-tested in [test_engine.ml]).

    The helper domains belong to the process, not to a [t]: the first
    map that fans out spawns them, up to the widest [jobs - 1] any map
    has asked for, and between maps they park on a condition variable,
    so a map costs a wake-up rather than a domain spawn.  A [t] is
    only a width, and creating one per query costs nothing. *)
module Pool : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** [jobs] defaults to [Domain.recommended_domain_count ()]; values
      below 1 are clamped to 1 (purely sequential). *)

  val jobs : t -> int

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Order-preserving parallel map: the calling domain and up to
      [jobs - 1] helpers claim indices in increasing order.  With
      [jobs = 1] or fewer than two elements this is [List.map].

      - One map owns the helpers at a time.  A map that finds them
        taken, such as one nested inside a task or one on another
        thread, runs [List.map] on its caller and bumps the
        [pool.inline] counter.  The result is the same, and no helper
        ever waits on a map that is waiting on it.
      - If [f] raises, [map] re-raises the exception [List.map] would,
        the one at the lowest failing index, whatever the schedule.
        Workers stop claiming after a failure, and the next map runs
        normally.
      - If a helper cannot be spawned (e.g. at the runtime's domain
        limit), the map runs on the helpers that exist, or on the
        caller alone.
      - Trace spans opened by [f] on helpers are re-parented under the
        span open at the call (see {!Obs.Trace.with_parent}), and a map
        that fans out feeds its width to the [pool.max_domains] gauge.

      Once a helper exists the runtime refuses [Unix.fork], as after
      any second domain; [Unix.create_process] is unaffected. *)
end
