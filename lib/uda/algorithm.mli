(** Uniform dependence algorithms (Definition 2.1): the pair [(J, D)]
    of a constant-bounded index set and an n×m integer dependence
    matrix, plus optional per-point semantics used by the systolic
    simulator and the reference evaluator.

    The computation at [j ∈ J] depends on the computations at
    [j - d_i] for every dependence column [d_i]; when [j - d_i] falls
    outside [J] the operand is an external input supplied by the
    semantics' [boundary] function. *)

type t = {
  name : string;
  index_set : Index_set.t;
  dependences : Intmat.t;  (** n×m; columns are the dependence vectors. *)
}

val make : name:string -> index_set:Index_set.t -> dependences:int list list -> t
(** [dependences] is given as a list of m column vectors of length n.
    @raise Invalid_argument on dimension mismatch. *)

val dim : t -> int
(** Algorithm dimension [n]. *)

val num_dependences : t -> int
(** [m], the number of dependence vectors. *)

val dependence : t -> int -> int array
(** [dependence a i] is column [d_i] as native ints. *)

val predecessor : t -> int array -> int -> int array
(** [predecessor a j i] is [j - d_i] (may fall outside [J]). *)

(** One run of a lowered semantics over a compiled sweep (the
    executor's plan, [Kernel]): storage for every point of [J],
    numbered by {e sweep position} — the order in which the executor
    fires the points.  With [n] the dimension and [m] the number of
    dependences, the plan gives:

    - [coords.(p * n + r)], coordinate [r] of the point at position [p];
    - [preds.(p * m + i)], the position of [j - d_i], or [-1] when that
      point lies outside [J] (the operand is a boundary input).

    Every predecessor of a position comes strictly earlier in the
    sweep. *)
type 'v sweep = {
  range : coords:int array -> preds:int array -> int -> int -> unit;
  (** [range ~coords ~preds lo hi] computes and stores the values at
      positions [lo] to [hi - 1], reading operands at earlier
      positions.  Calls on disjoint ranges of one wavefront may run
      concurrently on different domains, so a range writes only its
      own positions. *)
  get : int -> 'v;
  (** The value stored at a position, boxed as a ['v]. *)
}

(** Per-point semantics for executing the algorithm.  ['v] is the value
    type carried between computations. *)
type 'v semantics = {
  boundary : int array -> int -> 'v;
  (** [boundary j i] is the external input standing in for the value of
      [j - d_i] when that point is outside [J]. *)
  compute : int array -> 'v array -> 'v;
  (** [compute j operands] where [operands.(i)] is the value of
      [j - d_i] (or the boundary input). *)
  equal_value : 'v -> 'v -> bool;
  pp_value : Format.formatter -> 'v -> unit;
  lowered : (int -> 'v sweep) option;
  (** The same arithmetic as [boundary] and [compute], written as a
      loop over flat storage: [f card] takes a run's storage for
      [card] positions and returns its {!sweep}.  The storage may be
      recycled from an earlier run whose result is unreachable, so its
      contents are unspecified: [range] writes every position before
      any later position reads it.  The compiled
      executor runs this form when present and a one-point-at-a-time
      lowering of [boundary]/[compute] otherwise; the reference
      evaluators below never use it.

      It must compute exactly what [boundary] and [compute] compute.
      In particular [{ sem with compute = f }] (or [boundary = f])
      keeps the old [lowered], so the executor would keep the old
      arithmetic: set [lowered = None] alongside (verification
      against {!evaluate_all} flags the mismatch otherwise). *)
}

val evaluate : t -> 'v semantics -> int array -> 'v
(** Reference evaluator: the value computed at a point, by memoized
    recursion along the dependences, with the memo in flat arrays at
    the point's dense box id.  Used as ground truth against the
    systolic simulator and the compiled executor; it reads only
    [boundary] and [compute].
    @raise Invalid_argument if the point lies outside [J].
    @raise Failure on cyclic dependences. *)

val evaluate_all : t -> 'v semantics -> (int array -> 'v)
(** Evaluate the whole index set once; the returned function looks
    values up in O(1).  @raise as {!evaluate}. *)

val is_acyclic_witness : t -> Intvec.t -> bool
(** [is_acyclic_witness a pi] checks [pi D > 0], i.e. [pi] is a valid
    linear schedule direction proving the dependence graph acyclic. *)
