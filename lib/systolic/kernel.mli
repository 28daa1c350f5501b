(** Compiled execution of a verified mapping [T = [S; Pi]].

    Where {!Exec} is a cycle-accurate {e simulator} (hashtables over
    firings, movement checks, per-cycle bookkeeping), this module is an
    {e executor}: {!compile} lowers the schedule once into flat arrays
    numbered by {e sweep position} — the order [(Pi j, S j)] in which
    {!run} fires the points — and {!run} then walks the hyperplanes
    [Pi j = t] in time order, computing every point of a wavefront
    before the next one starts.

    The plan: [Pi j] and [S j] as native-int dot products; LSD counting
    sorts (the PE rows, then time) put each level in its own bucket in
    PE order, in time linear in [|J|] plus the key ranges; the point
    coordinates and each dependence's predecessor position are flat
    arrays in sweep order, so operands are read a few levels back in
    the same arrays; an id → position table serves [lookup].

    Because a linear schedule satisfies [Pi D > 0] (enforced at compile
    time, as in {!Exec.run}), all operands of a wavefront were produced
    on strictly earlier hyperplanes, so the points of one wavefront are
    independent: wide wavefronts are split into blocks of adjacent PEs
    and fanned across {!Engine.Pool} domains; a level no wider than one
    block runs inline, as a single task.  A fan-out wakes the pool's
    parked helper domains, which the bench's [engine.pool_map_ns] leaf
    puts at under a microsecond per map, while a 256-point block of
    lowered work is several microseconds (15-30 ns per point at mu=64,
    jobs 1, on a 2-vCPU Xeon VM).  The paper's linear arrays have level
    widths [O(mu)] (at most 67 points at mu=64), so their levels run
    inline.  The wavefront sweep is the cross-level barrier — exactly
    the array's cycle structure.

    {!run} executes the semantics' lowered form
    ({!Algorithm.semantics}[.lowered]), one call per level or block;
    a semantics without one runs a default lowering of its [boundary]
    and [compute] closures, one point at a time.  {!Scenario}'s
    semantics carry one allocation-free loop per dtype.

    Hot-path observability: [exec.compile] and [exec.wavefront] spans,
    plus the [exec.cells] counter (docs/SCHEMA.md). *)

type plan

val compile : ?block:int -> Algorithm.t -> Tmap.t -> plan
(** Lower the schedule of [tm] over the algorithm's index set.
    [block] (default 256) is the number of points of one wavefront a
    single domain executes as a unit; a wavefront wider than [block]
    is fanned across the pool by {!run}.
    @raise Failure when [Pi D > 0] fails (not a causal schedule).
    @raise Invalid_argument when dimensions disagree or [block < 1]. *)

val cells : plan -> int
(** Number of index points (= computations executed per {!run}). *)

val levels : plan -> int
(** Number of distinct hyperplanes [Pi j = t] (barriers per run). *)

val makespan : plan -> int
(** Last minus first firing time plus one — equals the simulator's
    [Exec.report.makespan] for the same mapping by construction. *)

val processors : plan -> int
(** Distinct PEs [S j] over the index set. *)

val peak_width : plan -> int
(** Points on the widest hyperplane — an upper bound on the useful
    domain parallelism of {!run}. *)

type 'v result = {
  lookup : int array -> 'v;  (** Value computed at an index point. *)
  elapsed_s : float;         (** Wall-clock of the wavefront sweep. *)
  parallel_levels : int;     (** Levels that were fanned across the pool. *)
}

val run : ?pool:Engine.Pool.t -> plan -> 'v Algorithm.semantics -> 'v result
(** Execute the plan: allocate the lowered form's storage, then sweep.
    [pool] defaults to a fresh [Engine.Pool.create ()]; pass an
    explicit pool to pin [jobs].  Deterministic: the returned values
    do not depend on the pool size or the block parameter, and equal
    those of the default lowering (tested in [test_systolic.ml]).
    [lookup] boxes one value per call. *)
