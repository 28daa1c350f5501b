let algorithm ~mu_i ~mu_k =
  Algorithm.make ~name:"fir"
    ~index_set:(Index_set.make [| mu_i; mu_k |])
    ~dependences:[ [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]

type value = { y : int; w : int; x : int }

let sample x i = if i < 0 || i >= Array.length x then 0 else x.(i)

let semantics ~w ~x =
  {
    Algorithm.boundary =
      (fun j i ->
        match i with
        | 0 -> { y = 0; w = 0; x = 0 }
        | 1 -> { y = 0; w = w.(j.(1)); x = 0 }
        | 2 -> { y = 0; w = 0; x = sample x (j.(0) - j.(1)) }
        | _ -> invalid_arg "Fir.semantics: bad dependence index");
    compute =
      (fun _ ops ->
        let w = ops.(1).w and x = ops.(2).x in
        { y = ops.(0).y + (w * x); w; x });
    equal_value = (fun a b -> a.y = b.y && a.w = b.w && a.x = b.x);
    pp_value = (fun fmt v -> Format.fprintf fmt "{y=%d}" v.y);
    lowered = None;
  }

let output_of_values ~mu_i ~mu_k value =
  Array.init (mu_i + 1) (fun i -> (value [| i; mu_k |]).y)

let reference_fir ~w ~x ~out_size =
  Array.init out_size (fun i ->
      let acc = ref 0 in
      Array.iteri (fun k wk -> acc := !acc + (wk * sample x (i - k))) w;
      !acc)
