(** Problem 6.1 (the paper's stated future work): given a linear
    schedule [Pi], find a space mapping [S ∈ Z^{(k-1)×n}] such that
    [T = [S; Pi]] is conflict-free and the array cost — number of
    processors plus total wire length — is minimized.

    The search enumerates candidate space mappings with bounded
    entries, prunes by rank and conflict-freedom (using the same sound
    decision procedure as Procedure 5.1) and evaluates the cost
    exactly: processors by projecting the index set, wire length as
    [Σ_i ||S d_i||₁] (nearest-neighbor hops per dependence), subject to
    the routability constraint [||S d_i||₁ <= Pi d_i] of
    Definition 2.2 condition 2. *)

type objective =
  | Processors            (** Minimize PE count only. *)
  | Processors_plus_wire  (** The paper's stated criterion. *)

type result = {
  s : Intmat.t;
  processors : int;
  wire_length : int;
  candidates_tried : int;
}

val optimize :
  ?entry_bound:int ->
  ?objective:objective ->
  ?valid:(Intmat.t -> bool) ->
  Algorithm.t ->
  pi:Intvec.t ->
  k:int ->
  result option
(** [optimize alg ~pi ~k] searches space mappings for a
    (k-1)-dimensional array with entries in [[-entry_bound,
    entry_bound]] (default 1 — unit projections, the systolic norm).
    Returns [None] if no conflict-free routable [S] exists in the
    searched family.

    [valid] replaces the default mapping-matrix screen ([rank T = k]
    plus {!Family.decide}) on each candidate [T = [S; Pi]] — the hook
    the cached engine ([Analysis.check]) plugs into.
    @raise Invalid_argument when [Pi] does not respect the dependences
    or [k] is out of range (needs [2 <= k <= n]). *)

val optimize_joint :
  ?entry_bound:int ->
  ?objective:objective ->
  ?valid:(Intmat.t -> bool) ->
  ?max_time_objective:int ->
  Algorithm.t ->
  k:int ->
  (Intvec.t * result) option
(** Problem 6.2 (the paper's second future-work problem), solved
    lexicographically: enumerate schedules [Pi] in increasing
    total-time order (the Procedure 5.1 candidate stream) and return
    the first one admitting a conflict-free space mapping in the
    searched family, together with the cheapest such array.  The
    result is time-optimal among all mappings whose [S] lies in the
    family, and array-cheapest for that time. *)
