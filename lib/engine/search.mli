(** The mapping search: Problem 2.1 made constructive, and the
    time/processor trade-off of Problems 6.1/6.2.

    [all_optimal_schedules] lists {e every} time-optimal conflict-free
    schedule for a fixed space mapping — the full candidate set a
    designer would pick from using secondary criteria (buffers, wire
    directions).  [pareto_front] explores the time/processor trade-off
    over the unit space-mapping family of {!Space_opt}, answering the
    question behind the paper's Problems 6.1/6.2: which (total time,
    array size) pairs are achievable at all?

    Every query walks Procedure 5.1's cost levels
    ({!Procedure51.first_level}) smallest-first with a full barrier per
    level.  Within a level the per-candidate work is fanned out over an
    {!Engine.Pool} and every mapping-matrix decision goes through the
    memoized {!Analysis.check}.  The pool preserves input order, so
    results are merged deterministically: the answer is the same at
    every width, and a 1-domain pool is the sequential search.

    Why parallelism preserves exactness: candidates are screened
    independently (no shared state beyond the append-only caches), the
    screen is a sound decision procedure, and "first level with
    winners" is decided only after the whole level has been screened —
    so it means the same thing under any domain count. *)

val all_optimal_schedules :
  ?pool:Engine.Pool.t ->
  ?budget:Engine.Budget.t ->
  ?max_objective:int ->
  Algorithm.t ->
  s:Intmat.t ->
  Intvec.t list
(** All conflict-free, full-rank, dependence-respecting [Pi] at the
    minimal total-time level, in candidate-enumeration order; [] when
    none exists with objective up to [max_objective] (default
    {!Procedure51.default_max_objective}). *)

val buffer_minimal :
  ?pool:Engine.Pool.t ->
  Algorithm.t ->
  s:Intmat.t ->
  Intvec.t list ->
  (Intvec.t * Tmap.routing) option
(** The paper's conclusion names buffer counts as the next
    optimization criterion.  Among the given schedules, return one
    minimizing the total number of delay registers
    [Σ_i (Pi d_i - hops_i)] (ties: fewest total hops, then list
    order), with its routing.  [None] when no schedule in the list can
    be routed. *)

val best_by_buffers :
  ?pool:Engine.Pool.t ->
  ?budget:Engine.Budget.t ->
  ?max_objective:int ->
  Algorithm.t ->
  s:Intmat.t ->
  (Intvec.t * Tmap.routing) option
(** {!buffer_minimal} over {!all_optimal_schedules}: a buffer-minimal
    schedule among {e all} time-optimal conflict-free ones.  A caller
    that also reports the schedule list should compute it once and
    pass it to {!buffer_minimal}. *)

type pareto_point = {
  total_time : int;
  processors : int;
  pi : Intvec.t;
  s : Intmat.t;
}

val pareto_front :
  ?pool:Engine.Pool.t ->
  ?budget:Engine.Budget.t ->
  ?entry_bound:int ->
  ?time_slack:int ->
  ?accept:(Intvec.t -> Intmat.t -> bool) ->
  Algorithm.t ->
  k:int ->
  pareto_point list
(** Non-dominated (total time, processors) pairs, smallest time first.
    Schedules are scanned from the joint optimum's time level up to
    [time_slack] extra levels (default 8); for each valid schedule the
    cheapest conflict-free array of the unit family (entries bounded
    by [entry_bound], default 1) gives the processor count.  Each
    schedule candidate's space-family scan is one pool task.

    [accept pi s] (default: accept all) can impose additional model
    constraints on each candidate point — e.g. link-collision freedom
    via [Linkcheck.predict], which Definition 2.2 does not require but
    [23]'s stricter model does.  It is applied after the joint
    optimum's level is found, so a rejecting [accept] shifts the front
    without moving its origin. *)
