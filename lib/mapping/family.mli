(** Mu-parametric (symbolic) conflict-freedom: Theorems 3.1 and 4.4-4.8
    with the index-set bounds [mu] left as parameters.

    Every mu-dependence in the paper's closed forms is an atom
    [mu_i < c] with [c] a constant computed from the Hermite multiplier
    — escape conditions [|v| > mu_i] and gcd conditions
    [g >= mu_i + 1] alike — while the sign guards are mu-free and fold
    away at build time.  {!build} therefore compiles a mapping matrix
    [T] once into a {e family verdict}: a piecewise predicate over mu
    that {!eval} decides per instance in a handful of integer
    comparisons, plus an explicit {!Residual} arm for the mu where no
    closed form applies (the exact oracles of {!Conflict} decide
    those).  This is the repository's only closed-form cascade: the
    rank test for [k >= n], Theorem 3.1 for [k = n-1], and the Hermite
    conditions of Theorems 4.4-4.8 for [k < n-1].  {!decide} runs it
    uncached, {!valid} adds the rank test and screens every candidate
    of a mapping scan; [Analysis.check] memoizes the family per
    matrix.

    Soundness contract (property-tested in [Check.Diff] and
    [test_family.ml]): whenever [eval] answers {!Decided}, the boolean
    agrees with the exact box oracle, a witness is a genuine conflict
    vector inside the box, and [Analysis.check] returns this verdict —
    boolean, deciding method {e and} witness — byte for byte, always
    exact, never budget-bounded.  See [docs/FAMILIES.md] for the
    derivations and the grammar. *)

(** {1 The piecewise-condition language} *)

type cond =
  | True
  | False
  | Lt of int * Zint.t  (** [mu_i < c], strict; [c > 0] by construction. *)
  | All of cond list    (** Conjunction; flattened, never empty. *)
  | Any of cond list    (** Disjunction; flattened, never empty. *)

val eval_cond : cond -> mu:int array -> bool
(** Evaluate at concrete bounds.  Requires every [mu_i >= 0] (the
    simplifier folds [mu_i < c] with [c <= 0] to [False]); the rest of
    the system enforces [mu_i >= 1]. *)

val escape_cond : Intvec.t -> cond
(** Theorem 2.2 for one vector: [gamma] escapes the box iff some
    [|gamma_i| > mu_i]. *)

(** {1 Parametric theorem conditions}

    Each builder is the mu-parametric form of the matching predicate in
    {!Theorems}, on the same Hermite factorization; [Theorems] itself
    evaluates these at concrete [mu], so there is a single source of
    truth for the closed forms. *)

val cond3 : Hnf.result -> cond
(** Theorem 4.4: every kernel column escapes. *)

val cond4 : Hnf.result -> cond option
(** Theorem 4.5, subsets made mu-free: a disjunction over the
    nonsingular size-(n-k) row subsets of the conjunction of their row
    gcd bounds.  [None] when the subset count exceeds 20,000 (the
    family then keeps no sufficient arm — sound, those mu are
    residual and the exact oracle decides them). *)

val cond5 : Hnf.result -> cond
(** Theorem 4.6 (k = n-2). *)

val cond_n_minus_2 : Hnf.result -> cond
(** Theorem 4.7 (k = n-2), including the Theorem 4.4 conjunct. *)

val cond_n_minus_3 : Hnf.result -> cond
(** Theorem 4.8 (k = n-3) verbatim — neither necessary nor sufficient,
    kept for the reproduction; see {!Theorems.nec_suff_n_minus_3}. *)

val corrected_cond_n_minus_3 : Hnf.result -> cond
(** Repaired Theorem 4.8: the verbatim conditions plus the pairwise
    Theorem-4.7-style conditions. *)

(** {1 Family verdicts} *)

type meth =
  | Full_rank_square
  | Adjugate_form
  | Column_infeasible
  | Hermite_n_minus_2
  | Hermite_n_minus_3
  | Gcd_sufficient

val method_name : meth -> string
(** Same names as [Analysis.decided_by_name] on the matching arms. *)

type shape =
  | Const_free
      (** [k >= n], full rank: conflict-free for every mu. *)
  | Always_residual
      (** Rank-deficient: no closed form, every instance pays for an
          exact oracle. *)
  | Adjugate of Intvec.t
      (** [k = n-1], full rank: the unique conflict vector (Theorem
          3.1); free iff it escapes the box — exact in both
          directions, witness included. *)
  | Cascade of {
      kernel : Intvec.t list;
          (** Sign-normalized kernel columns in scan order; the first
              one trapped in the box is the (byte-identical) witness. *)
      sufficient : (meth * cond) option;
          (** The codimension-matched sufficient condition; mu where
              it fails are residual. *)
    }

type t = {
  k : int;
  n : int;
  full_rank : bool;  (** [rank T = k], cached for the verdict record. *)
  shape : shape;
}

val shape_name : t -> string
(** ["const-free" | "residual" | "adjugate" | "cascade"]. *)

val build : Intmat.t -> t
(** Compile the family verdict for [T]. *)

type evaluation =
  | Decided of {
      conflict_free : bool;
      method_ : meth;
      witness : Intvec.t option;
    }
  | Residual

val eval : t -> mu:int array -> evaluation
(** Evaluate the family at concrete bounds.
    @raise Invalid_argument when [mu] and the family disagree on
    arity. *)

val decide : mu:int array -> Intmat.t -> bool
(** Conflict-freedom of [T] on the box [0 <= j_i <= mu_i], uncached:
    {!build}, {!eval}, and the oracle dispatch {!Conflict.oracle} when
    the instance is {!Residual}.  Always agrees with
    {!Conflict.is_conflict_free}.
    @raise Invalid_argument when [mu] and [T] disagree on arity. *)

val adjugate_free : mu:int array -> Intmat.t -> bool
(** For [T ∈ Z^{(n-1)×n}]: [rank T = n-1] and conflict-free, decided
    as the {!Adjugate} arm decides it, without building a family:
    {!Conflict.single_conflict_vector}, then {!Conflict.is_feasible}
    on its [gamma].  [false] when [rank T < n-1].  {!valid} runs it
    for every [k = n-1] [T].
    @raise Invalid_argument unless [T] is (n-1)×n, or when [mu] and
    [T] disagree on arity. *)

val valid : mu:int array -> Intmat.t -> bool
(** Conditions 3 and 4 of Definition 2.2 for a [k]×[n] [T]: [rank T
    = k] and conflict-free.  {!adjugate_free} when [k = n-1]; for any
    other [k], one {!build}, whose [full_rank] answers the rank test,
    then {!decide}'s evaluation and oracle on that family.  Uncached:
    the screen of every candidate of [Procedure51], [Space_opt] and
    both [Search] scans, whose candidates are distinct matrices.
    [Check.Diff] compares it with [rank T = k] and the brute-force
    oracle on every fuzzed instance. *)

(** {1 Codec}

    Compact, space-free rendering used by the persistent store's
    family records ([f] lines) and documented in [docs/FAMILIES.md]. *)

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on any malformed input (the store
    quarantines such records). *)
