type conflict = {
  time : int;
  pe : int array;
  points : int array list;
}

type collision = {
  link_pe : int array;
  primitive : int array;
  stream : int;
  at_time : int;
  count : int;
}

type verification =
  | Values_ok
  | Skipped_no_routing
  | Mismatch of int array list

let verification_name = function
  | Values_ok -> "values-ok"
  | Skipped_no_routing -> "skipped-no-routing"
  | Mismatch _ -> "mismatch"

type movement = {
  routing : Tmap.routing option;
  causality_violations : (int array * int) list;
  collisions : collision list;
  max_buffer_occupancy : int array;
}

type 'v report = {
  makespan : int;
  num_processors : int;
  computations : int;
  conflicts : conflict list;
  causality_violations : (int array * int) list;
  collisions : collision list;
  max_buffer_occupancy : int array;
  routing : Tmap.routing option;
  verified : verification;
  utilization : float;
}

(* Walk the sweep backwards, so each level's events come out in sweep
   order: by PE, then by point. *)
let schedule_table (alg : Algorithm.t) tm =
  let plan = Kernel.lower alg tm in
  let table = ref [] in
  for p = Kernel.cells plan - 1 downto 0 do
    let j = Kernel.point plan p in
    let t = Tmap.time_of tm j and ev = (Tmap.space_of tm j, j) in
    match !table with
    | (t', evs) :: rest when t' = t -> table := (t, ev :: evs) :: rest
    | rows -> table := (t, [ ev ]) :: rows
  done;
  !table

(* Expand column [i] of the routing matrix into the ordered list of
   primitive indices the datum traverses (one per cycle). *)
let route_primitives (routing : Tmap.routing) i =
  let k = routing.Tmap.k_matrix in
  let r = Intmat.rows k in
  List.concat
    (List.init r (fun prim ->
         List.init (Zint.to_int (Intmat.get k prim i)) (fun _ -> prim)))

(* A run of [Kernel.shared] positions, with the position before it, is
   one (time, PE) cell that fires several points. *)
let conflicts plan tm =
  List.fold_left
    (fun runs p ->
      match runs with
      | (lo, hi) :: rest when hi = p - 1 -> (lo, p) :: rest
      | _ -> (p - 1, p) :: runs)
    [] (Kernel.shared plan)
  |> List.rev_map (fun (lo, hi) ->
         let j = Kernel.point plan lo in
         {
           time = Tmap.time_of tm j;
           pe = Tmap.space_of tm j;
           points = List.init (hi - lo + 1) (fun x -> Kernel.point plan (lo + x));
         })

(* The positions whose operand along [d_i] is produced inside J, in
   sweep order. *)
let consumers plan i =
  let out = Array.make (Kernel.cells plan) 0 and k = ref 0 in
  for q = 0 to Kernel.cells plan - 1 do
    if Kernel.pred plan q i >= 0 then begin
      out.(!k) <- q;
      incr k
    end
  done;
  Array.sub out 0 !k

(* Stream [i]'s datum from the point [j] at position [p] leaves PE
   [S j + D_l] over primitive [route.(l)] at cycle [Pi j + l + 1],
   where [D_l] sums the first [l] primitives.  One LSD sort of every
   (hop, producer) entry on (primitive, cycle, PE) puts the data that
   share a link side by side. *)
let link_collisions plan tm ~time ~pe prims route i producers =
  let h = Array.length route and np = Array.length producers in
  let disp = Array.make_matrix (h + 1) (Intmat.rows tm.Tmap.s) 0 in
  for l = 0 to h - 1 do
    Array.iteri (fun r x -> disp.(l + 1).(r) <- disp.(l).(r) + x) prims.(route.(l))
  done;
  let len = h * np in
  (* Entry [l * np + x] is hop [l] of the datum of [producers.(x)]. *)
  let column f range =
    let key = Array.make len 0 in
    for l = 0 to h - 1 do
      for x = 0 to np - 1 do
        key.((l * np) + x) <- f l producers.(x)
      done
    done;
    (key, range)
  in
  let pe_column r (key, range) =
    let d = Array.init h (fun l -> disp.(l).(r)) in
    let lo = Array.fold_left min 0 d and hi = Array.fold_left max 0 d in
    column (fun l p -> key.(p) + d.(l) - lo) (range + hi - lo)
  in
  let columns =
    column (fun l _ -> route.(l)) (Array.length prims)
    :: column (fun l p -> (fst time).(p) + l) (snd time + h)
    :: List.mapi pe_column pe
  in
  let ids = Kernel.sort_lex columns len in
  let out = ref [] and a = ref 0 in
  while !a < len do
    let b = ref (!a + 1) in
    while !b < len && Kernel.same_keys columns ids.(!a) ids.(!b) do
      incr b
    done;
    if !b - !a > 1 then begin
      let j = Kernel.point plan producers.(ids.(!a) mod np) and l = ids.(!a) / np in
      out :=
        {
          link_pe = Array.mapi (fun r x -> x + disp.(l).(r)) (Tmap.space_of tm j);
          primitive = prims.(route.(l));
          stream = i;
          at_time = Tmap.time_of tm j + l + 1;
          count = !b - !a;
        }
        :: !out
    end;
    a := !b
  done;
  List.rev !out

(* A datum waits at its consumer's PE from [hops_i] cycles after it is
   produced until its use [Pi d_i] cycles after, so in the [len] cycles
   before its consumer fires.  Over one PE's consumers in time order,
   the peak is the most consumer times in a window of [len] cycles.
   The consumers come in time order, and the sort by PE is stable. *)
let peak_buffer ~time ~pe len consumers =
  let nq = Array.length consumers in
  let at (key, range) = (Array.map (fun q -> key.(q)) consumers, range) in
  let t = fst (at time) and pe = List.map at pe in
  let idx = Kernel.sort_lex pe nq in
  let best = ref 0 and b = ref 0 in
  for a = 0 to nq - 1 do
    b := max !b a;
    while
      !b < nq
      && Kernel.same_keys pe idx.(a) idx.(!b)
      && t.(idx.(!b)) < t.(idx.(a)) + len
    do
      incr b
    done;
    best := max !best (!b - a)
  done;
  !best

let movement (alg : Algorithm.t) tm plan =
  let m = Algorithm.num_dependences alg in
  match Tmap.find_routing tm ~d:alg.Algorithm.dependences with
  | None ->
    { routing = None; causality_violations = []; collisions = []; max_buffer_occupancy = Array.make m 0 }
  | Some r as routing ->
    let time = Kernel.keys plan tm.Tmap.pi in
    let pe = List.init (Intmat.rows tm.Tmap.s) (fun r -> Kernel.keys plan (Intmat.row tm.Tmap.s r)) in
    let pmat = Tmap.nearest_neighbor_primitives (Tmap.k tm - 1) in
    let prims = Array.init (Intmat.cols pmat) (fun c -> Array.map Zint.to_int (Intmat.col pmat c)) in
    let delay i = Zint.to_int (Intvec.dot tm.Tmap.pi (Intmat.col alg.Algorithm.dependences i)) in
    let streams = List.init m (fun i -> (i, consumers plan i)) in
    let late (i, qs) =
      if r.Tmap.hops.(i) <= delay i then []
      else List.map (fun q -> (Kernel.point plan q, i)) (Array.to_list qs)
    in
    let links (i, qs) =
      link_collisions plan tm ~time ~pe prims
        (Array.of_list (route_primitives r i))
        i
        (Array.map (fun q -> Kernel.pred plan q i) qs)
    in
    let buffer (i, qs) =
      let len = delay i - r.Tmap.hops.(i) in
      if len <= 0 then 0 else peak_buffer ~time ~pe len qs
    in
    {
      routing;
      causality_violations = List.concat_map late streams;
      collisions = List.concat_map links streams;
      max_buffer_occupancy = Array.of_list (List.map buffer streams);
    }

let run (alg : Algorithm.t) (sem : 'v Algorithm.semantics) tm =
  if not (Schedule.respects tm.Tmap.pi alg.Algorithm.dependences) then
    failwith "Exec.run: Pi D > 0 fails; the mapping is not causal";
  let plan = Kernel.lower alg tm in
  let mv = movement alg tm plan in
  (* Values: the plan's own sweep, on one domain, against the
     schedule-independent reference evaluator.  Mismatching points are
     reported explicitly (capped), so a wrong value is never confused
     with a movement check that was merely skipped. *)
  let kr = Kernel.run ~pool:(Engine.Pool.create ~jobs:1 ()) plan sem in
  let reference = Algorithm.evaluate_all alg sem in
  let mismatches =
    List.rev
      (Index_set.fold
         (fun acc j ->
           if List.length acc >= 16
              || sem.Algorithm.equal_value (kr.Kernel.lookup j) (reference j)
           then acc
           else Array.copy j :: acc)
         [] alg.Algorithm.index_set)
  in
  {
    makespan = Kernel.makespan plan;
    num_processors = Kernel.processors plan;
    computations = Kernel.cells plan;
    conflicts = conflicts plan tm;
    causality_violations = mv.causality_violations;
    collisions = mv.collisions;
    max_buffer_occupancy = mv.max_buffer_occupancy;
    routing = mv.routing;
    verified =
      (if mismatches <> [] then Mismatch mismatches
       else match mv.routing with None -> Skipped_no_routing | Some _ -> Values_ok);
    utilization = Kernel.utilization plan;
  }

let values_agree r = match r.verified with Mismatch _ -> false | _ -> true

let is_clean r =
  r.conflicts = [] && r.causality_violations = [] && r.collisions = [] && values_agree r

let fully_verified r = is_clean r && r.verified = Values_ok
