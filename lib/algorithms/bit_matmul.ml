let algorithm ~mu_word ~mu_bit =
  Algorithm.make ~name:"bit-matmul"
    ~index_set:(Index_set.make [| mu_word; mu_word; mu_word; mu_bit; mu_bit |])
    ~dependences:
      [
        [ 0; 0; 1; 0; 0 ];  (* partial-product accumulation along k *)
        [ 0; 0; 0; 1; 0 ];  (* carry/shift chain along the A-bit axis *)
        [ 0; 0; 0; 0; 1 ];  (* carry/shift chain along the B-bit axis *)
        [ 1; 0; 0; 0; 0 ];  (* B bits ride along i *)
        [ 0; 1; 0; 0; 0 ];  (* A bits ride along j *)
      ]

let example_s = Intmat.of_ints [ [ 1; 0; 0; 1; 0 ]; [ 0; 1; 0; 0; 1 ] ]

(* Serpentine accumulation: bb innermost, then ba, then k.  The two
   carry dependences jump back to the end of the previous row/plane,
   exactly like the row-carry of the 4-D convolution instance. *)
let chained_algorithm ~mu_word ~mu_bit =
  Algorithm.make ~name:"bit-matmul-chained"
    ~index_set:(Index_set.make [| mu_word; mu_word; mu_word; mu_bit; mu_bit |])
    ~dependences:
      [
        [ 0; 0; 0; 0; 1 ];                    (* sum along bb *)
        [ 0; 0; 0; 1; -mu_bit ];              (* carry to the next ba row *)
        [ 0; 0; 1; -mu_bit; -mu_bit ];        (* carry to the next k plane *)
        [ 1; 0; 0; 0; 0 ];                    (* B bits ride along i *)
        [ 0; 1; 0; 0; 0 ];                    (* A bits ride along j *)
      ]

type value = { a_bit : int; b_bit : int; sum : int }

let bit x pos = (x lsr pos) land 1

(* Point (i, j, k, ba, bb) multiplies bit ba of A[i][k] by bit bb of
   B[k][j]: the A bit is invariant along j (dependence 5), the B bit
   along i (dependence 4). *)
let semantics ~a ~b =
  {
    Algorithm.boundary =
      (fun j i ->
        let zero = { a_bit = 0; b_bit = 0; sum = 0 } in
        match i with
        | 0 | 1 | 2 -> zero
        | 3 -> { zero with b_bit = bit b.(j.(2)).(j.(1)) j.(4) }
        | 4 -> { zero with a_bit = bit a.(j.(0)).(j.(2)) j.(3) }
        | _ -> invalid_arg "Bit_matmul.semantics: bad dependence index");
    compute =
      (fun j ops ->
        (* Operands 3/4 are the propagated bit when the predecessor is
           inside J and the boundary injection otherwise. *)
        let b_bit = ops.(3).b_bit in
        let a_bit = ops.(4).a_bit in
        let prev =
          if j.(4) > 0 then ops.(0).sum
          else if j.(3) > 0 then ops.(1).sum
          else if j.(2) > 0 then ops.(2).sum
          else 0
        in
        { a_bit; b_bit; sum = prev + (a_bit * b_bit * (1 lsl (j.(3) + j.(4)))) });
    equal_value = (fun x y -> x.a_bit = y.a_bit && x.b_bit = y.b_bit && x.sum = y.sum);
    pp_value = (fun fmt v -> Format.fprintf fmt "{sum=%d}" v.sum);
    lowered = None;
  }

let product_of_values ~mu_word ~mu_bit value =
  Array.init (mu_word + 1) (fun i ->
      Array.init (mu_word + 1) (fun j -> (value [| i; j; mu_word; mu_bit; mu_bit |]).sum))

let random_word_matrix ~rng ~size ~mu_bit =
  Array.init size (fun _ -> Array.init size (fun _ -> Random.State.int rng (1 lsl (mu_bit + 1))))
