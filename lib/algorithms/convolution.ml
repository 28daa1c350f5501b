let algorithm ~mu_ij ~mu_pq =
  Algorithm.make ~name:"convolution-2d"
    ~index_set:(Index_set.make [| mu_ij; mu_ij; mu_pq; mu_pq |])
    ~dependences:
      [
        [ 0; 0; 0; 1 ];
        [ 0; 0; 1; -mu_pq ];
        [ 1; 0; 0; 0 ];
        [ 0; 1; 0; 0 ];
        [ 1; 0; 1; 0 ];
        [ 0; 1; 0; 1 ];
      ]

type value = { y : int; k : int; x : int }

let pixel img r c =
  if r < 0 || c < 0 || r >= Array.length img || c >= Array.length img.(0) then 0
  else img.(r).(c)

(* At (i, j, p, q): multiply ker(p,q) by img(i-p, j-q) and add it to the
   running sum.  Exactly one of the two sum predecessors (d_1 within a
   kernel row, d_2 across rows) lies inside J, except at (p,q) = (0,0)
   where the sum starts at zero. *)
let semantics ~ker ~img =
  {
    Algorithm.boundary =
      (fun j i ->
        let zero = { y = 0; k = 0; x = 0 } in
        match i with
        | 0 | 1 -> zero
        | 2 | 3 -> { zero with k = ker.(j.(2)).(j.(3)) }
        | 4 | 5 -> { zero with x = pixel img (j.(0) - j.(2)) (j.(1) - j.(3)) }
        | _ -> invalid_arg "Convolution.semantics: bad dependence index");
    compute =
      (fun j ops ->
        let prev_y = if j.(3) > 0 then ops.(0).y else ops.(1).y in
        let k = if j.(0) > 0 then ops.(2).k else ops.(3).k in
        let x = if j.(0) > 0 && j.(2) > 0 then ops.(4).x else ops.(5).x in
        { y = prev_y + (k * x); k; x });
    equal_value = (fun a b -> a.y = b.y && a.k = b.k && a.x = b.x);
    pp_value = (fun fmt v -> Format.fprintf fmt "{y=%d}" v.y);
    lowered = None;
  }

let output_of_values ~mu_ij ~mu_pq value =
  Array.init (mu_ij + 1) (fun i ->
      Array.init (mu_ij + 1) (fun j -> (value [| i; j; mu_pq; mu_pq |]).y))

let reference_convolution ~ker ~img ~out_size =
  Array.init out_size (fun i ->
      Array.init out_size (fun j ->
          let acc = ref 0 in
          Array.iteri
            (fun p row -> Array.iteri (fun q kv -> acc := !acc + (kv * pixel img (i - p) (j - q))) row)
            ker;
          !acc))

let example_s = Intmat.of_ints [ [ 1; 0; 1; 0 ]; [ 0; 1; 0; 1 ] ]
