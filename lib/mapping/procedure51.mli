(** Procedure 5.1: find the time-optimal conflict-free schedule [Pi°]
    for a given space mapping [S] by enumerating candidates in
    increasing total-execution-time order.

    Candidates with equal objective [Σ |pi_i| mu_i] are generated
    together (the sorting of Step 3 is implicit in the cost-level
    enumeration); each candidate is screened by the four conditions of
    Step 5: [Pi D > 0], [rank T = k], conflict-freedom, and — when an
    interconnection matrix is supplied — the routing condition
    [SD = PK]. *)

type result = {
  pi : Intvec.t;
  total_time : int;        (** Equation 2.7. *)
  candidates_tried : int;  (** Search effort, for the complexity bench. *)
  routing : Tmap.routing option;
}

val optimize :
  ?valid:(Intmat.t -> bool) ->
  ?p:Intmat.t ->
  ?require_routing:bool ->
  ?max_objective:int ->
  Algorithm.t ->
  s:Intmat.t ->
  result option
(** [optimize alg ~s] returns the schedule minimizing Equation 2.7, or
    [None] if no valid schedule exists with objective up to
    [max_objective] (default [Σ mu_i * (mu_i + 1)], enough for every
    example in the paper).  When [require_routing] is set (default
    [false]), candidates whose dependences cannot be routed on [p]
    (default nearest-neighbor links) are rejected — condition 2 of
    Definition 2.2.

    [valid] replaces the default mapping-matrix screen,
    {!Family.valid} ([rank T = k] and conflict-free; Theorem 3.1's
    closed form when [k = n-1]). *)

val default_max_objective : int array -> int
(** The default search bound [Σ mu_i * (mu_i + 1)]. *)

val first_level :
  ?from:int -> ?max_objective:int -> mu:int array -> (int -> 'a option) -> 'a option
(** The cost-level walk every Procedure 5.1-style search shares:
    [first_level ~mu level] calls [level cost] for [cost = from, from
    + 1, ...] (default [from = 1]) and returns its first [Some], or
    [None] once [cost] passes [max_objective] (default
    [default_max_objective mu]).  [level] sees one whole level at a
    time, so "first level with a winner" is decided before any costlier
    candidate is generated. *)

val walk : mu:int array -> int -> (Intvec.t -> unit) -> unit
(** [walk ~mu cost visit] calls [visit] on every integral [Pi] with
    [Σ |pi_i| mu_i = cost] — the paper's candidate set [C_l] — in
    enumeration order: components left to right, each magnitude
    ascending from 0, [+m] before [-m].  The last component is solved
    rather than searched: it exists only when the remainder is a
    multiple of [mu_{n-1}].  [visit] sees one buffer, rewritten in
    place between calls, so a caller that keeps a candidate copies
    it; a walk allocates nothing else. *)

val candidates_at_cost : mu:int array -> int -> Intvec.t list
(** The candidates of {!walk}, copied into a list in its order. *)

val minimal_schedule : ?max_objective:int -> Algorithm.t -> Intvec.t option
(** The cost-minimal [Pi] with [Pi D > 0] and nothing else — the
    "free" schedule used as Problem 6.1's given input when no space
    mapping has been chosen yet. *)
