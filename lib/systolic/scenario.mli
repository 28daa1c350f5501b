(** The SCENARIOS × TYPES differential matrix over the compiled
    executor {!Kernel}.

    Each scenario is one of the paper's case studies — matrix
    multiplication (Examples 3.1/5.1) or the reindexed transitive
    closure (Examples 3.2/5.2) — at a given size [mu], under either the
    paper's optimal schedule or the prior-art alternative it improves
    on ([23]'s Lee–Kedem schedule for matmul, the [22] schedule for
    transitive closure).  Each dtype is a first-class module giving the
    cell arithmetic over [int], [int32] or [float].

    Per cell the runner:

    + compiles and executes the kernel ({!Kernel.compile} /
      {!Kernel.run}) over {!Engine.Pool} domains;
    + verifies every cell against the schedule-independent reference
      evaluator {!Algorithm.evaluate_all} — exactly for the integer
      dtypes, within a 2-ULP tolerance for float;
    + at small sizes additionally cross-checks the {!Exec}
      cycle-accurate simulator: same makespan, clean run (the
      simulator itself checks values against the same reference, so
      agreement is transitive);
    + reports throughput (GFLOP/s over the per-cell flop count) and
      PE utilization.

    The [exec.verify] span covers the verification work; the
    [exec.verify.mismatches] counter counts failing cells
    (docs/SCHEMA.md).  CLI: [shangfortes exec]; bench: the [exec]
    section of BENCH_<rev>.json.  See docs/EXECUTOR.md. *)

(** {1 Dtypes} *)

(** The machine type of a dtype and its arithmetic: [Int] is native
    [int] arithmetic, [Int32] is [int] arithmetic modulo 2^32, [Float]
    is IEEE double arithmetic with {!Float_type}'s [damp].  The generic
    semantics pick their lowered loop by it. *)
type _ dtype = Int : int dtype | Int32 : int32 dtype | Float : float dtype

module type TYPE = sig
  type t

  val dtype : t dtype
  (** A module with this witness promises the arithmetic it names. *)

  val name : string
  val of_int : int -> t
  val add : t -> t -> t
  val mul : t -> t -> t

  val damp : t -> t
  (** Contraction applied inside the transitive-closure recurrence so
      float values stay bounded over long dependence chains (identity
      for the wrapping integer types). *)

  val equal : t -> t -> bool
  (** Exact for integer types; ULP-tolerant for float. *)

  val pp : Format.formatter -> t -> unit
end

module Int_type : TYPE with type t = int
module Int32_type : TYPE with type t = int32
module Float_type : TYPE with type t = float

val types : (module TYPE) list
(** The full dtype axis: int, int32, float. *)

val type_by_name : string -> (module TYPE) option

val ulp_distance : float -> float -> int
(** Units in the last place between two same-sign floats ([0] iff
    numerically equal, [max_int] across a sign change or to a NaN). *)

(** {1 Scenarios} *)

type schedule =
  | Optimal      (** The paper's Pi° (Procedure 5.1's output). *)
  | Alternative  (** Lee–Kedem [23] for matmul, [22] for closure. *)

type spec = {
  name : string;        (** e.g. ["matmul-8"], ["tc-8-alt"]. *)
  algorithm : string;   (** ["matmul"] or ["tc"]. *)
  mu : int;
  schedule : schedule;
  flops_per_cell : int; (** Flop count charged per index point. *)
}

val scenario : ?schedule:schedule -> string -> mu:int -> spec
(** [scenario "matmul" ~mu:8].  @raise Invalid_argument on an unknown
    algorithm name (only the two case studies execute generically). *)

val default_scenarios : spec list
(** The committed matrix: both algorithms at mu 4/8/16 under Pi°, plus
    one alternative-schedule cell each at mu 8 — so the paper's
    headline speedups are measured, not just derived. *)

val schedule_name : spec -> string

val instantiate : spec -> Algorithm.t * Tmap.t
(** The algorithm instance and verified paper mapping [T = [S; Pi]]
    a spec names. *)

(** {1 Generic semantics}

    The same cell arithmetic as the case studies' reference semantics,
    lifted over an arbitrary dtype.  Each carries a lowered form
    ({!Algorithm.semantics}[.lowered]): the arithmetic written again as
    one allocation-free loop per machine type over [int array] or
    [Float.Array] streams, chosen by [TYPE.dtype] ([int32] shares the
    [int] loop and truncates when boxing).  {!Kernel.run} executes the
    loop; {!Algorithm.evaluate_all} still runs the [compute] closures,
    so verification compares the two.  The loops read the plan layout
    of their own case study (three coordinates, and three or five
    dependences, per point): run each semantics on a plan of its own
    algorithm. *)

type 'v streams = { va : 'v; vb : 'v; vc : 'v }
(** Matmul's three data streams (the [B], [A] and accumulator flows of
    Figure 2). *)

val matmul_semantics :
  (module TYPE with type t = 'a) ->
  mu:int ->
  seed:int ->
  'a streams Algorithm.semantics
(** Multiply two seeded random (mu+1)×(mu+1) matrices of small ints —
    exactly representable in every dtype, overflow-free in [int]. *)

val tc_semantics : (module TYPE with type t = 'a) -> 'a Algorithm.semantics
(** A fixed polynomial recurrence over the closure's five dependence
    streams: deterministic per point, sensitive to any misrouted
    operand, bounded for float thanks to [TYPE.damp]. *)

(** {1 Running} *)

type sim_check = {
  sim_makespan : int;
  sim_clean : bool;     (** {!Exec.is_clean} on the simulator report. *)
  makespan_agrees : bool;  (** Simulator makespan = kernel makespan. *)
}

type cell = {
  spec : spec;
  dtype : string;
  jobs : int;
  cells : int;
  levels : int;
  makespan : int;
  processors : int;
  peak_width : int;
  mismatches : int;     (** Cells disagreeing with the reference. *)
  verified : bool;      (** [mismatches = 0]. *)
  sim : sim_check option;  (** [None] above the simulator size cutoff. *)
  elapsed_s : float;
  gflops : float;
  utilization : float;  (** cells / (processors * makespan). *)
}

val run_cell :
  ?pool:Engine.Pool.t ->
  ?block:int ->
  ?sim_limit:int ->
  spec ->
  (module TYPE) ->
  cell
(** One cell of the matrix.  [sim_limit] (default 8192) is the largest
    cell count still cross-checked against {!Exec.run}. *)

val run_matrix :
  ?pool:Engine.Pool.t ->
  ?block:int ->
  ?sim_limit:int ->
  spec list ->
  (module TYPE) list ->
  cell list
(** The cross product, scenario-major. *)

val cell_ok : cell -> bool
(** Verified against the reference, and — when the simulator ran —
    clean with an agreeing makespan. *)

val json_of_cell : cell -> Json.t
(** The per-cell object of the [exec] CLI report and bench section
    (fields documented in docs/SCHEMA.md). *)
