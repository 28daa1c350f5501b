(** The paper's closed-form conflict-freedom conditions (Theorems 4.3
    through 4.8), stated on the Hermite multiplier [U] of the mapping
    matrix.

    Every predicate takes the {!Hnf.result} of [T] (so callers pay for
    the normal form once) together with the index-set bounds [mu].
    Their agreement with the exact box oracle of {!Conflict} is
    property-tested; see EXPERIMENTS.md for the observed status of each
    condition.  These predicates reproduce the paper; the decision
    cascade built from them is {!Family} ({!Family.decide} uncached,
    [Analysis.check] memoized). *)

type input = {
  hnf : Hnf.result;
  mu : int array;
}

val make_input : mu:int array -> Intmat.t -> input

val necessary_cond2 : input -> bool
(** Theorem 4.3: every column of [V = U⁻¹] has a nonzero entry among
    its first [k] rows.  Necessary for conflict-freedom. *)

val necessary_cond3 : input -> bool
(** Theorem 4.4: the kernel columns [u_{k+1} .. u_n] are themselves
    feasible conflict vectors.  Necessary. *)

val sufficient_cond4 : input -> bool
(** Theorem 4.5: there are rows [i_1 .. i_{n-k}] of [U] whose
    restriction to the kernel columns is nonsingular while the gcd of
    each such row is at least [mu_i + 1].  Sufficient.  Evaluates
    {!Family.cond4} when it exists and otherwise searches the row
    subsets concretely; the concrete search can take seconds on wide
    kernels and no decision path runs it. *)

val sufficient_cond5 : input -> bool
(** Theorem 4.6, [k = n-2] only: a gcd row plus a second row covering
    the one-dimensional degenerate direction.  Sufficient.
    @raise Invalid_argument when [n - k <> 2]. *)

val nec_suff_n_minus_2 : input -> bool
(** Theorem 4.7, [k = n-2]: sign-matched column sums exceed the bounds
    and both kernel columns are feasible.  Claimed necessary and
    sufficient by the paper; our property tests against the box oracle
    show the {e sufficiency} direction holds but the {e necessity}
    direction fails (the proof's step "condition (1) does not hold ⇒
    |gamma_i| <= mu_i for all i" ignores rows whose two kernel entries
    have opposite signs yet still sum past the bound).  Treat as
    sufficient only; see EXPERIMENTS.md E11.
    @raise Invalid_argument when [n - k <> 2]. *)

val nec_suff_n_minus_3 : input -> bool
(** Theorem 4.8, [k = n-3]: the four sign-pattern conditions plus
    feasibility of the three kernel columns, exactly as printed.
    Property tests show this is {e neither} necessary {e nor}
    sufficient: conflict vectors whose [beta] has a zero component
    (e.g. [beta = (1, -1, 0)], a pairwise combination of two kernel
    columns) are covered by none of the four all-nonzero sign patterns
    nor by condition 5.  Kept verbatim for the reproduction; use
    {!corrected_sufficient_n_minus_3} for a sound check.
    @raise Invalid_argument when [n - k <> 3]. *)

val corrected_sufficient_n_minus_3 : input -> bool
(** Theorem 4.8 repaired: the four triple sign-pattern conditions,
    {e plus} the three pairwise Theorem-4.7-style conditions (for each
    pair of kernel columns and each relative sign), plus feasibility of
    the single columns.  Sufficient by the same magnitude argument as
    Theorem 4.7, now covering every partition of [beta]'s support.
    @raise Invalid_argument when [n - k <> 3]. *)
