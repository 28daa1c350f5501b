type t = {
  processors : int;
  makespan : int;
  computations : int;
  utilization : float;
  max_pe_load : int;
  min_pe_load : int;
  peak_parallelism : int;
  wire_length : int;
}

(* Runs of one PE in the plan's positions sorted by PE. *)
let loads plan tm =
  let pe = List.init (Intmat.rows tm.Tmap.s) (fun r -> Kernel.keys plan (Intmat.row tm.Tmap.s r)) in
  Array.fold_right
    (fun p loads ->
      match loads with
      | (q, c) :: rest when Kernel.same_keys pe p q -> (p, c + 1) :: rest
      | _ -> (p, 1) :: loads)
    (Kernel.sort_lex pe (Kernel.cells plan))
    []
  |> List.map (fun (p, c) -> (Tmap.space_of tm (Kernel.point plan p), c))

let pe_loads alg tm = loads (Kernel.lower alg tm) tm

let compute (alg : Algorithm.t) tm =
  let plan = Kernel.lower alg tm in
  let loads = List.map snd (loads plan tm) in
  let sd = Intmat.to_ints (Intmat.mul tm.Tmap.s alg.Algorithm.dependences) in
  {
    processors = Kernel.processors plan;
    makespan = Kernel.makespan plan;
    computations = Kernel.cells plan;
    utilization = Kernel.utilization plan;
    max_pe_load = List.fold_left max 0 loads;
    min_pe_load = List.fold_left min max_int loads;
    peak_parallelism = Kernel.peak_width plan;
    wire_length = List.fold_left (List.fold_left (fun acc x -> acc + abs x)) 0 sd;
  }

let pp fmt s =
  Format.fprintf fmt
    "@[<v>processors       %d@,makespan         %d@,computations     %d@,\
     utilization      %.3f@,PE load          %d..%d@,peak parallelism %d@,\
     wire length      %d@]"
    s.processors s.makespan s.computations s.utilization s.min_pe_load s.max_pe_load
    s.peak_parallelism s.wire_length
