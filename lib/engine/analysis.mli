(** The single front door for conflict-freedom queries.

    The repository has one conflict-freedom cascade: the {!Family}
    verdict for [t] evaluated at [mu], then — on a
    {!Family.Residual} evaluation — the oracle dispatch
    {!Conflict.oracle}.  {!check} runs it behind the verdict and family
    memo tables of {!Engine.Cache}, keyed on the matrix content, so a
    repeated query — the daemon's stream, a [mu] sweep over one matrix
    — costs a hash lookup.  It answers whether [t] is conflict-free on
    the box, and also returns rank, witness and timing in one record.
    Every verdict is exact: both oracles decide Theorem 2.2 exactly.  A
    scan whose queries are all distinct matrices, such as every
    candidate of a {!Search} scan, screens with the uncached
    {!Family.valid} instead, where a memo table would cost a hash and a
    lock per query and never hit.

    Every call bumps the [analysis.*] counters of {!Obs.Metrics}, feeds
    the [analysis.check_ms] histogram and opens an [analysis.check]
    trace span (see [docs/SCHEMA.md] for the full catalogue).
    Rank-deficient inputs — which skip every closed-form theorem and
    pay for an exact oracle — additionally bump
    [analysis.rank_deficient_fallthrough] and warn once on stderr. *)

type decided_by =
  | Theorem of Family.meth
      (** A closed form of the family cascade settled it. *)
  | Box_oracle
      (** The exact box oracle {!Conflict.find_conflict}, on a residual
          instance whose box {!Conflict.box_is_small}. *)
  | Lattice_oracle
      (** The exact LLL-lattice oracle, chosen because the box was too
          large to enumerate. *)

type verdict = {
  conflict_free : bool;
  full_rank : bool;     (** [rank T = k], condition 4 of Definition 2.2. *)
  decided_by : decided_by;
  witness : Intvec.t option;
  (** A conflict vector inside the box when one was produced (always
      primitive and sign-normalized); [None] for conflict-free
      mappings and for verdicts settled without constructing one. *)
  timing : float;       (** Wall-clock seconds spent in this call. *)
}

val check : mu:int array -> Intmat.t -> verdict
(** Decide conflict-freedom of [t] on the box [0 <= j_i <= mu_i]:
    verdict cache, then the memoized {!family} evaluated at [mu], then
    on a residual evaluation {!Conflict.oracle}.  Agrees with
    {!Family.decide} and the exact oracles (property-tested); verdicts
    are cached and replayed on structurally equal queries.
    @raise Invalid_argument when [mu] and [t] disagree on arity. *)

val is_conflict_free : mu:int array -> Intmat.t -> bool
(** [(check ~mu t).conflict_free]. *)

val decided_by_name : decided_by -> string
(** Human-readable method name, also used by the JSON reports. *)

(** {1 Family tier}

    The closed-form tier of {!check}: {!Family.build} runs once per
    distinct mapping matrix (memoized in the ["family"] cache table)
    and {!check} evaluates the stored piecewise condition at each
    instance's [mu] before handing residual instances to the oracle.
    Counters: [family.hits] (instance decided by a closed form),
    [family.misses] (a family built), [family.residual] (family known
    but this [mu] needs the oracle).  See [docs/FAMILIES.md]. *)

val family : Intmat.t -> Family.t
(** The memoized family verdict for [t] (built on first use). *)

val eval_family : Family.t -> mu:int array -> verdict option
(** Evaluate a family (e.g. one replayed from the persistent store) at
    concrete bounds: [Some] verdict — byte-identical to {!check}'s,
    with [timing = 0.] — when the family decides, [None] when the
    instance is residual.
    @raise Invalid_argument on arity mismatch. *)
