let algorithm ~steps ~cells =
  Algorithm.make ~name:"odd-even-sort"
    ~index_set:(Index_set.make [| steps; cells |])
    ~dependences:[ [ 1; 1 ]; [ 1; 0 ]; [ 1; -1 ] ]

(* At step t, cell i pairs with i+1 when (i + t) is even, with i-1 when
   odd; edge cells without a partner copy their value. *)
let semantics ~initial =
  let cells = Array.length initial - 1 in
  {
    Algorithm.boundary = (fun _ _ -> 0);
    compute =
      (fun j ops ->
        let t = j.(0) and i = j.(1) in
        if t = 0 then initial.(i)
        else if (i + t) mod 2 = 0 && i < cells then Stdlib.min ops.(1) ops.(2)
        else if (i + t) mod 2 = 1 && i > 0 then Stdlib.max ops.(0) ops.(1)
        else ops.(1));
    equal_value = Int.equal;
    pp_value = Format.pp_print_int;
    lowered = None;
  }

let row_of_values ~steps ~cells value =
  Array.init (cells + 1) (fun i -> value [| steps; i |])

let is_sorted a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if a.(i) > a.(i + 1) then ok := false
  done;
  !ok
