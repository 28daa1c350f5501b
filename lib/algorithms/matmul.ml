let algorithm ~mu =
  Algorithm.make ~name:"matmul"
    ~index_set:(Index_set.cube ~n:3 ~mu)
    ~dependences:[ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ]

type value = { a : int; b : int; c : int }

(* Point (j1, j2, j3) computes the j3-th partial sum of C[j1][j2]:
   the A element A[j1][j3] arrives along d_2 = e_2 (constant in j2),
   the B element B[j3][j2] along d_1 = e_1 (constant in j1), and the
   running sum along d_3 = e_3. *)
let semantics ~a ~b =
  {
    Algorithm.boundary =
      (fun j i ->
        match i with
        | 0 -> { a = 0; b = b.(j.(2)).(j.(1)); c = 0 }
        | 1 -> { a = a.(j.(0)).(j.(2)); b = 0; c = 0 }
        | 2 -> { a = 0; b = 0; c = 0 }
        | _ -> invalid_arg "Matmul.semantics: bad dependence index");
    compute =
      (fun _ ops ->
        let from_b = ops.(0) and from_a = ops.(1) and from_c = ops.(2) in
        { a = from_a.a; b = from_b.b; c = from_c.c + (from_a.a * from_b.b) });
    equal_value = (fun x y -> x.a = y.a && x.b = y.b && x.c = y.c);
    pp_value = (fun fmt v -> Format.fprintf fmt "{a=%d;b=%d;c=%d}" v.a v.b v.c);
    lowered = None;
  }

let product_of_values ~mu value =
  Array.init (mu + 1) (fun i -> Array.init (mu + 1) (fun j -> (value [| i; j; mu |]).c))

let reference_product a b =
  let n = Array.length a in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref 0 in
          for k = 0 to n - 1 do
            acc := !acc + (a.(i).(k) * b.(k).(j))
          done;
          !acc))

let random_matrix ~rng n =
  Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int rng 19 - 9))

let paper_s = Intmat.of_ints [ [ 1; 1; -1 ] ]
let optimal_pi ~mu = Intvec.of_ints [ 1; mu; 1 ]
let lee_kedem_pi ~mu = Intvec.of_ints [ 2; 1; mu ]
let optimal_total_time ~mu = (mu * (mu + 2)) + 1
let lee_kedem_total_time ~mu = (mu * (mu + 3)) + 1
