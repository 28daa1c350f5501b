(** Latency-aware health tracking for one shard: crash detection plus
    a gray-failure circuit breaker.

    The router's monitor probes each shard with a [ping] every health
    interval and feeds the result — and its latency — to {!note}.
    Two independent signals come back:

    - {b crash edge} (unchanged from the boolean tracker): when
      [threshold] probe {e failures} arrive in a row, {!note} reports
      [`Failed] {e once} — the edge on which the router promotes the
      shard's follower (docs/CLUSTER.md);
    - {b breaker} (new): successful probes feed a latency EWMA
      ([alpha]-weighted, default 0.3).  When the EWMA of a [Closed]
      shard crosses [latency_limit_ms], {!note} reports [`Opened] and
      the breaker opens — the router routes the shard's traffic to its
      follower while the shard is {e up but slow}.  After [cooldown]
      further probes the breaker goes [Half_open]; the next probe is
      the trial: at or under the limit closes the breaker ([`Recovered],
      EWMA restarted from that sample), over it re-opens.  A failed
      probe while half-open also re-opens.  [latency_limit_ms <= 0]
      disables the breaker entirely.

    Mutation is single-writer (the monitor thread); {!state} /
    {!ewma_ms} are single-word reads, safe for the router's event
    loop to poll. *)

type breaker = Closed | Open | Half_open

type verdict = [ `Ok | `Failed | `Opened | `Recovered ]

type t

val create :
  ?threshold:int ->
  ?alpha:float ->
  ?latency_limit_ms:float ->
  ?cooldown:int ->
  unit ->
  t
(** Defaults: threshold 3, alpha 0.3, latency limit 500 ms, cooldown 3
    probes.
    @raise Invalid_argument when [threshold < 1], [alpha] outside
    [(0, 1]], or [cooldown < 1]. *)

val note : t -> ?latency_ms:float -> ok:bool -> unit -> verdict
(** Record one probe.  [`Failed] exactly on the [threshold]-th
    consecutive failure; [`Opened] / [`Recovered] exactly on breaker
    transitions out of / back into service (see above).  A success
    without a latency sample only resets the failure streak. *)

val state : t -> breaker
val state_name : t -> string
(** ["closed"] / ["open"] / ["half_open"] — the stats wire form. *)

val ewma_ms : t -> float
(** Current latency EWMA in milliseconds ([0.] before any sample). *)

val opens : t -> int
(** How many times the breaker has opened (including re-opens from
    half-open). *)

val consecutive : t -> int
val probes : t -> int
val failures : t -> int
val threshold : t -> int
val latency_limit_ms : t -> float
