(** The single front door for conflict-freedom queries.

    [check ~mu t] answers whether [t] is conflict-free on the box, and
    also returns rank, witness and timing in one record.  It runs the
    repository's one conflict-freedom cascade: the verdict cache, then
    the memoized {!Family} verdict for [t] evaluated at [mu], then — on
    a {!Family.Residual} evaluation — the exact oracle.  On top of the
    cascade it adds:

    - {e caching}: the family verdict, the lattice oracle and the final
      verdict are memoized in {!Engine.Cache}, keyed on the matrix
      content, so repeated queries (ubiquitous in enumeration scans)
      cost a hash lookup;
    - {e budgets}: under an expired {!Engine.Budget} the cascade is
      replaced by the lattice oracle and the verdict is reported with
      [exactness = Bounded] instead of blocking;
    - {e observability}: every call bumps the [analysis.*] counters of
      {!Obs.Metrics}, feeds the [analysis.check_ms] histogram and opens
      an [analysis.check] trace span (see [docs/SCHEMA.md] for the
      full catalogue).  Rank-deficient inputs — which skip every
      closed-form theorem and pay for an exact oracle — additionally
      bump [analysis.rank_deficient_fallthrough] and warn once on
      stderr. *)

type exactness =
  | Exact    (** Decided by a sound condition or an exact oracle. *)
  | Bounded  (** Budget-degraded path; see {!Engine.Budget}. *)

type decided_by =
  | Theorem of Family.meth
      (** A closed form of the family cascade settled it. *)
  | Box_oracle
      (** The exact box oracle {!Conflict.find_conflict}, on a residual
          instance whose box {!Conflict.box_is_small}. *)
  | Lattice_oracle
      (** The LLL-lattice oracle, chosen because the box was too large
          to enumerate (still exact). *)
  | Lattice_fallback
      (** The lattice oracle chosen under budget pressure; the verdict
          is reported as bounded. *)

type verdict = {
  conflict_free : bool;
  full_rank : bool;     (** [rank T = k], condition 4 of Definition 2.2. *)
  decided_by : decided_by;
  witness : Intvec.t option;
  (** A conflict vector inside the box when one was produced (always
      primitive and sign-normalized); [None] for conflict-free
      mappings and for verdicts settled without constructing one. *)
  timing : float;       (** Wall-clock seconds spent in this call. *)
  exactness : exactness;
}

val check : ?budget:Engine.Budget.t -> mu:int array -> Intmat.t -> verdict
(** Decide conflict-freedom of [t] on the box [0 <= j_i <= mu_i]:
    verdict cache, then {!family} evaluated at [mu], then on a residual
    evaluation the box oracle when the box {!Conflict.box_is_small},
    else the cached lattice oracle.  Agrees with {!Family.decide} and
    the exact oracles (property-tested); verdicts computed without
    budget pressure are cached and replayed on structurally equal
    queries.
    @raise Invalid_argument when [mu] and [t] disagree on arity. *)

val is_conflict_free : ?budget:Engine.Budget.t -> mu:int array -> Intmat.t -> bool
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
    with [timing = 0.] and [exactness = Exact] — when the family
    decides, [None] when the instance is residual.
    @raise Invalid_argument on arity mismatch. *)
