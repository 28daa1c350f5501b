(** Cycle-accurate checks of a uniform dependence algorithm on the
    array of a mapping [T = [S; Pi]]: [j ∈ J] fires at time [Pi j] on
    PE [S j], and each datum moves to its consumer along the routing
    [K], one interconnection primitive per cycle, then waits in a
    buffer until use.  Every check runs on {!Kernel.lower}'s
    sweep-order plan, in time linear in [|J|] times the hop counts
    plus the key ranges:

    - {b computational conflicts} (Definition 2.2, condition 3): points
      on one PE in one cycle, adjacent in the sweep;
    - {b causality}: every operand has arrived before its use;
    - {b link collisions} (the [23] condition of Section 5): two data of
      one stream on one directed link in one cycle, by one counting
      sort per stream;
    - {b buffer occupancy} per stream, against the paper's
      [Pi d_i - Σ_j k_ji] registers, by a sliding window over each
      PE's consumers in time order;
    - {b value correctness}: the plan's sweep ({!Kernel.run}, one
      domain) against {!Algorithm.evaluate_all}. *)

type conflict = {
  time : int;
  pe : int array;
  points : int array list;  (** At least two index points. *)
}

type collision = {
  link_pe : int array;       (** PE the datum leaves. *)
  primitive : int array;     (** Direction vector of the link. *)
  stream : int;              (** Dependence index. *)
  at_time : int;
  count : int;               (** Data simultaneously on the link. *)
}

(** Outcome of the value check against {!Algorithm.evaluate_all},
    kept separate from the movement checks so a skipped routing can
    never masquerade as a verified run (tests must pattern-match the
    case they mean, not a collapsed boolean). *)
type verification =
  | Values_ok
      (** Every value matches the reference evaluator {e and} the
          movement checks (routing, links, buffers) actually ran. *)
  | Skipped_no_routing
      (** Values match, but no routing [K] exists within the schedule
          slack, so link/buffer movement was never exercised. *)
  | Mismatch of int array list
      (** Points whose computed value differs from the reference
          evaluator (capped at 16). *)

val verification_name : verification -> string
(** ["values-ok" | "skipped-no-routing" | "mismatch"]. *)

(** The data-movement checks under the nearest-neighbour routing. *)
type movement = {
  routing : Tmap.routing option;
  (** [None] when no routing fits the schedule slack; the other checks
      are then empty. *)
  causality_violations : (int array * int) list;
  (** (point, dependence index) whose operand had not arrived. *)
  collisions : collision list;
  max_buffer_occupancy : int array;
  (** Per dependence stream, max data waiting in any one PE's buffer. *)
}

val movement : Algorithm.t -> Tmap.t -> Kernel.plan -> movement
(** Route every dependence over {!Tmap.nearest_neighbor_primitives},
    then check links, buffers and arrivals on a plan of the same
    algorithm and mapping.  [Pi D > 0] is assumed. *)

type 'v report = {
  makespan : int;  (** First to last firing, inclusive (Equation 2.7). *)
  num_processors : int;
  computations : int;
  conflicts : conflict list;
  causality_violations : (int array * int) list;
  collisions : collision list;
  max_buffer_occupancy : int array;
  routing : Tmap.routing option;  (** As in {!type-movement}. *)
  verified : verification;
  utilization : float;  (** computations / (processors * makespan). *)
}

val run : Algorithm.t -> 'v Algorithm.semantics -> Tmap.t -> 'v report
(** Every check above, on the unchecked plan: conflicts are reported,
    in (time, PE) order with their points sorted, not refused.
    @raise Invalid_argument when dimensions disagree.
    @raise Failure when [Pi D > 0] fails. *)

val values_agree : 'v report -> bool
(** The computed values match the reference evaluator (i.e. [verified]
    is not [Mismatch _]); says nothing about movement checks. *)

val is_clean : 'v report -> bool
(** No conflicts, no causality violations, no collisions, values match.
    Movement checks may have been skipped ([Skipped_no_routing]) — use
    {!fully_verified} to also require them. *)

val fully_verified : 'v report -> bool
(** {!is_clean} and [verified = Values_ok]: every structural claim was
    actually exercised, nothing skipped. *)

val schedule_table : Algorithm.t -> Tmap.t -> (int * (int array * int array) list) list
(** For rendering: time -> [(pe, point); ...] sorted by time, then PE,
    then point — {!Kernel.lower}'s sweep order.  Any [Pi] is accepted. *)

val route_primitives : Tmap.routing -> int -> int list
(** The canonical hop sequence (primitive indices, one per cycle) used
    for dependence [i] — primitives in index order, each repeated
    [k_ji] times.  Exposed so that {!Linkcheck}'s analytical model and
    the simulation share one movement policy by construction. *)
