(** The matrix multiplication algorithm as a uniform dependence
    algorithm (Examples 3.1 and 5.1).

    [C = A B] on (mu+1)×(mu+1) matrices over the 3-dimensional cube
    [J = [0, mu]^3] with dependence matrix [D = I]: the columns
    [d_1 = e_1], [d_2 = e_2], [d_3 = e_3] carry the [B], [A] and [C]
    streams respectively (the paper's convention).  Full integer
    semantics is provided, so the systolic simulation computes real
    products and checks them against direct multiplication. *)

val algorithm : mu:int -> Algorithm.t

type value = { a : int; b : int; c : int }

val semantics : a:int array array -> b:int array array -> value Algorithm.semantics
(** [a] and [b] must be (mu+1)×(mu+1); reads outside are errors. *)

val product_of_values : mu:int -> (int array -> value) -> int array array
(** Extract [C]: entry (i, j) is the [c] field at point [(i, j, mu)]. *)

val reference_product : int array array -> int array array -> int array array
(** Direct O(n³) multiplication, the ground truth. *)

val random_matrix : rng:Random.State.t -> int -> int array array

(** {1 The paper's mappings (Example 5.1)} *)

val paper_s : Intmat.t
(** [S = [1, 1, -1]], the space mapping of [23] reused by the paper. *)

val optimal_pi : mu:int -> Intvec.t
(** A conflict-free schedule for {!paper_s} of total time [mu(mu+2) + 1]:
    the paper's [Pi° = [1, mu, 1]] at even [mu].  At odd [mu], Pi°'s
    conflict vector [((mu+1)/2, -1, (mu-1)/2)] lies in the box
    (EXPERIMENTS.md, Observation 1), so it is [[1, 2, mu-1]], conflict
    vector [(mu+1, -mu, 1)]; at [mu = 1], [[1, 2, 1]] (5 cycles). *)

val lee_kedem_pi : mu:int -> Intvec.t
(** [Pi' = [2, 1, mu]] of [23] — total time [mu(mu+3) + 1]. *)

val optimal_total_time : mu:int -> int
val lee_kedem_total_time : mu:int -> int
