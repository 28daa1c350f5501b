let algorithm ~mu_t ~mu_i =
  Algorithm.make ~name:"stencil-1d"
    ~index_set:(Index_set.make [| mu_t; mu_i |])
    ~dependences:[ [ 1; 1 ]; [ 1; 0 ]; [ 1; -1 ] ]

let semantics ~coeffs:(cl, cc, cr) ~initial =
  {
    (* Absorbing boundary: out-of-rod neighbors contribute zero. *)
    Algorithm.boundary = (fun _ _ -> 0);
    compute =
      (fun j ops ->
        if j.(0) = 0 then initial.(j.(1))
        else (cl * ops.(0)) + (cc * ops.(1)) + (cr * ops.(2)));
    equal_value = Int.equal;
    pp_value = Format.pp_print_int;
    lowered = None;
  }

let row_of_values ~mu_t ~mu_i value =
  Array.init (mu_i + 1) (fun i -> value [| mu_t; i |])

let reference_sweeps ~coeffs:(cl, cc, cr) ~initial ~steps =
  let n = Array.length initial in
  let cell row i = if i < 0 || i >= n then 0 else row.(i) in
  let rec go row s =
    if s = 0 then row
    else
      go
        (Array.init n (fun i ->
             (cl * cell row (i - 1)) + (cc * cell row i) + (cr * cell row (i + 1))))
        (s - 1)
  in
  go (Array.copy initial) steps
