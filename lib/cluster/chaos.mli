(** The chaos driver: boot a topology in-process under a seeded
    {!Fault.Plan}, drive verified [analyze] requests through one
    retrying {!Server.Client.session}, then audit that the system
    {e converged} — zero verdict disagreements against a fault-free
    direct {!Analysis.check} (byte-identical JSON) and zero lost
    acknowledged writes (docs/RESILIENCE.md, docs/CLUSTER.md).

    The topology is one daemon, or a fleet of [shards] primaries with
    one follower each behind one {!Router}.  Either way a run takes
    the ground truth with no plan armed, boots, arms the plan, and
    drives every request in order from one session on the calling
    thread.  In a fleet, [shard.kill] is consulted before request [i]
    for [i >= requests / 3] until it fires; shard [seed mod shards]
    is then drained (or aborted, with [hard_kill]) and its follower
    promoted, between two requests.  After the run the plan is
    disarmed, everything drains, and every instance whose reply
    acknowledged a write (store status [hit], [miss] or [family])
    must be present, byte-exact, in a journal that may hold it: the
    daemon's; in a fleet the ring owner's primary or follower (a
    hedge that won on the follower acked the write there), or only
    the follower for the killed shard.

    Determinism: the session retries with no wall-clock budget and
    seeds its jitter with [seed], so two runs with the same seed and
    transport produce byte-identical fault logs (same
    {!Fault.Plan.fingerprint}) on either topology.  Logs compare per
    transport: the [hello] exchange adds consults.  A fleet's
    background traffic (health probes, journal shipping) would consult
    the io/conn sites in timing-dependent order, so fleet runs arm
    [cluster], whose sites only the request path consults.  The
    [latency] class is safe on both, since its sites are ambient
    (stalls are counted, never logged per event).

    SLO mode (a fleet with [slo]) runs three passes over the same
    stream — fault-free baseline, armed with hedging, armed without —
    and converges only when the hedged p99 is within
    [max (3 * baseline_p99) 25ms] while the unhedged p99 is over it.
    The report's counters and fault log are the hedged pass's.  Arm
    it with [classes = ["latency"]]: kills would remove hedge partners
    mid-pass and void the bound. *)

type fleet = {
  shards : int;
  hedge : bool;      (** Router hedging (fixed 5 ms delay) in the main pass. *)
  hard_kill : bool;  (** Kill via {!Server.Daemon.abort} instead of a drain. *)
  slo : bool;        (** Three-pass SLO audit (see above). *)
}

type topology =
  | Daemon of { jobs : int option }  (** One daemon with [jobs] pool domains. *)
  | Fleet of fleet   (** Every shard and follower runs one pool domain. *)

type config = {
  seed : int;            (** Seeds instances, fault plan and retry jitter. *)
  requests : int;
  distinct : int;        (** Distinct instances in the cycled pool. *)
  size : int;            (** {!Check.Gen} size parameter. *)
  classes : string list; (** {!Fault.Plan.classes} subset to arm. *)
  rate : float;          (** Per-consult fault probability. *)
  transport : Server.Wire.version;  (** Session transport. *)
  delay_ms : int;        (** Stall applied by fired [latency]-class consults. *)
  fsync_every : int;     (** Store sync interval of every daemon booted. *)
  topology : topology;
}

val default_config : config
(** One daemon ([jobs = None]), seed 42, 500 requests, 32 distinct
    instances, size 4, classes [[io; conn; worker]], rate 0.1, v1
    transport, 25 ms gray delay, [fsync_every = 4]. *)

val default_fleet : fleet
(** 3 shards, hedging on, graceful kill, SLO off. *)

type slo_report = {
  baseline_p99_ms : float;
  hedged_p99_ms : float;
  unhedged_p99_ms : float;
  bound_ms : float;             (** [max (3 * baseline_p99) 25ms]. *)
  hedged_within_bound : bool;
  unhedged_degraded : bool;     (** Unhedged p99 over the same bound. *)
}

type report = {
  seed : int;
  requests : int;
  shards : int;          (** [0] for one daemon. *)
  classes : string list;
  rate : float;
  transport : string;    (** {!Server.Wire.version_name} of the session. *)
  ok : int;
  errors : int;          (** Retries exhausted, or a non-ok reply. *)
  retried : int;         (** Requests needing more than one attempt. *)
  attempts : int;        (** Total attempts across answered requests. *)
  disagreements : int;   (** Replies differing from ground truth. *)
  acked : int;           (** Distinct instances with an acknowledged write. *)
  lost_writes : int;     (** Acked instances no journal holds byte-exact. *)
  faults : int;          (** {!Fault.Plan.faults_injected}. *)
  delays : int;          (** Latency stalls applied ({!Fault.Plan.delays_injected}). *)
  site_counts : (string * int) list;  (** Logged events per catalogue site. *)
  worker_deaths : int;   (** Summed over every daemon, as are the store counters. *)
  store_quarantined : int;
  store_healed : int;
  store_io_errors : int;
  killed_shard : int;    (** [-1] when no kill fired (always, for one daemon). *)
  killed_at : int;       (** Request index of the kill, [-1] when none. *)
  promoted : bool;
  hedges : int;          (** Hedge re-issues the router sent ([0] for one daemon). *)
  hedge_wins : int;      (** Hedges whose reply arrived first. *)
  fingerprint : string;
  fault_log : string list;
  converged : bool;
      (** Zero disagreements, zero lost acked writes, some successes,
          a promotion if a kill fired, and in SLO mode the
          hedged-within / unhedged-over bound pair. *)
  slo : slo_report option;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  recovery_p50_ms : float;  (** Latency of retried requests only. *)
  recovery_p95_ms : float;
  recovery_max_ms : float;
  wall_s : float;
}

val run : config -> report
(** Every socket, journal and [.quarantine] sidecar it creates is
    removed afterwards.
    @raise Invalid_argument on a non-positive [requests], [distinct],
    [fsync_every] or [shards]. *)

val json_of_report : report -> Json.t
(** The [chaos] document's fields (docs/SCHEMA.md); [slo] only in SLO
    mode, [promotions] is [1] after a promotion. *)
