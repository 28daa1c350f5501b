(** Compiled execution of a verified mapping [T = [S; Pi]].

    {!lower} numbers the index points by {e sweep position}, the order
    [(Pi j, S j)] in which {!run} fires them: [Pi j] and [S j] are
    native-int dot products, and LSD sorts (the PE rows, then time)
    put each level in its own bucket in PE order: counting sorts,
    linear in [|J|] plus the key range, for every key whose range is
    at most [|J|], and merge sorts for wider ones, so a plan takes
    memory linear in [|J|].  Point coordinates and each
    dependence's predecessor position are flat arrays in sweep order;
    an id → position table serves [lookup].  Points that share a
    (time, PE) are adjacent in the sweep, so one pass over adjacent
    positions finds every conflict.  {!compile} refuses a mapping that
    is not causal ([Pi D > 0]) or not conflict-free (Definition 2.2);
    {!Exec} checks any causal mapping on the unchecked plan.

    {!run} walks the hyperplanes [Pi j = t] in time order.  Under
    [Pi D > 0] every operand of a wavefront comes from an earlier
    one, so a wavefront wider than one block is split into blocks of
    adjacent PEs fanned across {!Engine.Pool} domains; narrower levels
    run inline (the paper's linear arrays are at most 67 points wide
    at mu=64, against 6-25 ns per point and under a microsecond per
    pool map on a 2-vCPU Xeon VM).  {!run} executes the semantics'
    lowered form ({!Algorithm.semantics}[.lowered]), one call per level
    or block, or else a default lowering of its [boundary] and
    [compute] closures, one point at a time.

    Hot-path observability: [exec.compile] and [exec.wavefront] spans,
    plus the [exec.cells] counter (docs/SCHEMA.md). *)

type plan

val lower : ?block:int -> Algorithm.t -> Tmap.t -> plan
(** The plan of any [Pi], conflicts included; {!run} needs [Pi D > 0].
    [block] (default 256) is the number of points of one wavefront a
    domain executes as a unit.
    @raise Invalid_argument when dimensions disagree or [block < 1]. *)

val compile : ?block:int -> Algorithm.t -> Tmap.t -> plan
(** {!lower}, gated.
    @raise Failure when [Pi D > 0] fails, or when two points fire on
    one PE in one cycle; the message names the time, the PE and two
    such points.
    @raise Invalid_argument as {!lower}. *)

val cells : plan -> int
(** Number of index points (= computations executed per {!run}). *)

val levels : plan -> int
(** Number of distinct hyperplanes [Pi j = t] (barriers per run). *)

val makespan : plan -> int
(** Last minus first firing time plus one (Equation 2.7). *)

val processors : plan -> int
(** Distinct PEs [S j] over the index set. *)

val peak_width : plan -> int
(** Points on the widest hyperplane — an upper bound on the useful
    domain parallelism of {!run}. *)

val utilization : plan -> float
(** [cells / (processors * makespan)]. *)

(** {1 Reading a plan}

    Positions run from [0] to [cells - 1] in time order, each level in
    lexicographic PE order, ties in lexicographic point order. *)

val point : plan -> int -> int array
(** The index point at a position (a fresh array). *)

val pred : plan -> int -> int -> int
(** [pred plan p i]: the position of [j - d_i], or [-1] outside [J]. *)

val shared : plan -> int list
(** The positions, ascending, that fire on the PE and in the cycle of
    the position before: empty iff the mapping is conflict-free on J. *)

val keys : plan -> Intvec.t -> int array * int
(** [w j] per position, shifted into [0 .. range - 1], and [range]. *)

val sort_lex : (int array * int) list -> int -> int array
(** [0 .. len - 1] stably sorted by the [(key, range)] columns, keys in
    [0 .. range - 1]: one LSD pass per column, a counting sort when its
    range is at most [len] and a stable merge sort when it is wider,
    so memory stays linear in [len] however wide the ranges. *)

val same_keys : (int array * int) list -> int -> int -> bool
(** Two ids agree on every column. *)

type 'v result = {
  lookup : int array -> 'v;  (** Value computed at an index point. *)
  elapsed_s : float;
  (** Seconds of the wavefront sweep, read from the monotonic
      nanosecond clock. *)
  parallel_levels : int;     (** Levels that were fanned across the pool. *)
}

val run : ?pool:Engine.Pool.t -> plan -> 'v Algorithm.semantics -> 'v result
(** Execute the plan: take the lowered form's storage, then sweep.
    That storage may be recycled ([Scenario]'s semantics keep free
    lists of it), so its contents are unspecified until the sweep
    writes them; [elapsed_s] starts after it is taken.
    [pool] defaults to a fresh [Engine.Pool.create ()]; pass an
    explicit pool to pin [jobs].  Deterministic: the returned values
    do not depend on the pool size or the block parameter, and equal
    those of the default lowering (tested in [test_systolic.ml]).
    [lookup] boxes one value per call. *)
