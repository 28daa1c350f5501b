(** Mapping matrices [T = [S; Pi] ∈ Z^{k×n}] (Definition 2.2): the
    space mapping [S ∈ Z^{(k-1)×n}] stacked over the linear schedule
    [Pi], mapping an n-dimensional algorithm onto a (k-1)-dimensional
    processor array.

    Also implements condition 2 of Definition 2.2: the interconnection
    feasibility [SD = PK] with hop counts bounded by the schedule
    ([Σ_j k_ji <= Pi d_i]): in closed form on nearest-neighbour links,
    and exactly per dependence with the {!Ilp} substrate for an
    explicit primitive set. *)

type t = private { s : Intmat.t; pi : Intvec.t }

val make : s:Intmat.t -> pi:Intvec.t -> t
(** @raise Invalid_argument when [S] and [Pi] disagree on [n]. *)

val of_rows : int list list -> t
(** Build from the rows of the full matrix [T]; the last row is [Pi]. *)

val matrix : t -> Intmat.t
(** The full k×n matrix, [S] rows first, [Pi] last (Definition 2.2). *)

val n : t -> int
(** Algorithm dimension (columns). *)

val k : t -> int
(** Rows of [T]; the target array is (k-1)-dimensional. *)

val space_of : t -> int array -> int array
(** PE coordinates [S j] of an index point. *)

val time_of : t -> int array -> int
(** Execution time [Pi j]. *)

val has_full_rank : t -> bool
(** Condition 4 of Definition 2.2: [rank T = k]. *)

val processors : t -> Index_set.t -> int array list
(** The set of PE coordinates actually used, [S J], deduplicated and
    sorted.  Built as the Minkowski sum of the segments
    [{0..mu_c} S_c] over the columns of [S], without walking [J].
    @raise Invalid_argument when the index set and [t] disagree on
    the dimension. *)

(** {1 Interconnection feasibility (condition 2)} *)

type routing = {
  k_matrix : Intmat.t;
  (** r×m non-negative matrix with [P K = S D]; column [i] spells how
      many times each primitive carries the datum of dependence [d_i]. *)
  hops : int array;     (** [Σ_j k_ji] per dependence. *)
  buffers : int array;  (** [Pi d_i - hops_i] per dependence — the
                            number of delay registers on that stream. *)
}

val nearest_neighbor_primitives : int -> Intmat.t
(** The (k-1)×(2(k-1)) matrix [P] of ±unit primitives (the paper's
    4-neighbor example generalized to any array dimension). *)

val find_routing : ?p:Intmat.t -> t -> d:Intmat.t -> routing option
(** Minimal-hop routing of every dependence, or [None] when some
    dependence cannot reach its destination within its schedule slack.

    Without [p], the links are {!nearest_neighbor_primitives}[ (k-1)]
    and the routing is the ILP's unique optimum in closed form: column
    [i] of [K] splits [S d_i] by sign, [k_2r = max ((S d_i)_r, 0)] and
    [k_2r+1 = max (-(S d_i)_r, 0)], feasible iff
    [||S d_i||_1 <= Pi d_i].  An explicit [p], for another link set
    such as a diagonal one, is routed by the exact {!Ilp}, one
    dependence at a time (given the nearest-neighbour matrix, it finds
    the same routing at the ILP's cost). *)

val nearest_neighbor_hops : s:Intmat.t -> d:Intmat.t -> int array
(** [||S d_i||_1] per dependence: the hops of the nearest-neighbour
    routing of {!find_routing}, and the wire length [Space_opt]
    charges. *)
