(* Schedule compilation: the hyperplane walk of [Pi j = t] lowered to
   flat arrays in sweep order, so the hot loop reads operands at
   nearby positions and never hashes.  Index points of the box live at
   dense lexicographic ids (the box is full), which gives an O(1)
   bijection point <-> id via strides; [pos_of_id] maps an id to the
   point's sweep position. *)

type plan = {
  n : int;                  (* algorithm dimension *)
  m : int;                  (* dependences *)
  card : int;
  mu : int array;           (* box bounds *)
  stride : int array;       (* id = sum_i j_i * stride_i *)
  pos_of_id : int array;    (* id -> sweep position *)
  coords : int array;       (* pos*n + r -> coordinate r *)
  preds : int array;        (* pos*m + i -> position of j - d_i, -1 = boundary *)
  level_off : int array;    (* levels+1 offsets into the sweep *)
  shared : int list;        (* positions firing on the PE and cycle of the previous one *)
  makespan : int;
  processors : int;
  peak_width : int;
  block : int;
}

let cells p = p.card
let levels p = Array.length p.level_off - 1
let makespan p = p.makespan
let processors p = p.processors
let peak_width p = p.peak_width
let utilization p = float_of_int p.card /. float_of_int (p.processors * p.makespan)
let shared p = p.shared
let point p pos = Array.sub p.coords (pos * p.n) p.n
let pred p pos i = p.preds.((pos * p.m) + i)

(* [w j] for each of the [card] points of [coords], [n] ints a point,
   shifted into [0, range) by the box's least value. *)
let dot_keys mu coords card w =
  let w = Array.map Zint.to_int w and n = Array.length mu in
  let lo = ref 0 and range = ref 1 in
  Array.iteri
    (fun r x ->
      lo := !lo + min 0 (x * mu.(r));
      range := !range + abs (x * mu.(r)))
    w;
  let key i =
    let acc = ref (- !lo) in
    for r = 0 to n - 1 do
      acc := !acc + (w.(r) * coords.((i * n) + r))
    done;
    !acc
  in
  (Array.init card key, !range)

let keys p w = dot_keys p.mu p.coords p.card w

(* [ids] stably sorted by [key.(id)], keys in [0, range): a counting
   sort, O(|ids| + range). *)
let counting_sort key range ids =
  let start = Array.make (range + 1) 0 in
  Array.iter (fun id -> start.(key.(id) + 1) <- start.(key.(id) + 1) + 1) ids;
  for k = 1 to range do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let out = Array.make (Array.length ids) 0 in
  Array.iter
    (fun id ->
      let k = key.(id) in
      out.(start.(k)) <- id;
      start.(k) <- start.(k) + 1)
    ids;
  out

(* The same order in O(|ids|) memory whatever the range: a range wider
   than |ids| goes to a stable merge sort instead. *)
let sort_by key range ids =
  if range <= Array.length ids then counting_sort key range ids
  else begin
    let out = Array.copy ids in
    Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) out;
    out
  end

(* LSD passes, last column first. *)
let sort_lex columns len =
  List.fold_right (fun (key, range) ids -> sort_by key range ids) columns (Array.init len Fun.id)

let rec same_keys columns a b =
  match columns with
  | [] -> true
  | (key, _) :: rest -> key.(a) = key.(b) && same_keys rest a b

let lower ?(block = 256) (alg : Algorithm.t) tm =
  Obs.Trace.with_span "exec.compile" @@ fun () ->
  if block < 1 then invalid_arg "Kernel.lower: block must be >= 1";
  let iset = alg.Algorithm.index_set in
  let mu = Index_set.bounds iset in
  let n = Array.length mu in
  if Tmap.n tm <> n then
    invalid_arg "Kernel.lower: the mapping and the algorithm disagree on n";
  let stride = Array.make n 1 in
  for i = n - 2 downto 0 do
    stride.(i) <- stride.(i + 1) * (mu.(i + 1) + 1)
  done;
  let card = Index_set.cardinal iset in
  (* Coordinates by id: [Index_set.iter] is lexicographic, as ids are. *)
  let jid = Array.make (card * n) 0 in
  let next = ref 0 in
  Index_set.iter
    (fun j ->
      Array.blit j 0 jid !next n;
      next := !next + n)
    iset;
  let keys = dot_keys mu jid card in
  let pe = List.init (Intmat.rows tm.Tmap.s) (fun r -> keys (Intmat.row tm.Tmap.s r)) in
  let time, time_range = keys tm.Tmap.pi in
  (* PE rows, then time, so each level's bucket ends in PE order. *)
  let by_pe = sort_lex pe card in
  let processors = ref 0 in
  Array.iteri
    (fun i id -> if i = 0 || not (same_keys pe id by_pe.(i - 1)) then incr processors)
    by_pe;
  let order = sort_by time time_range by_pe in
  (* One pass over adjacent positions: level bounds, and the points
     that share a (time, PE), which sit next to each other. *)
  let offs = ref [ card ] and peak = ref 0 and lo = ref card and shared = ref [] in
  for p = card - 1 downto 0 do
    if p = 0 || time.(order.(p - 1)) <> time.(order.(p)) then begin
      peak := max !peak (!lo - p);
      lo := p;
      offs := p :: !offs
    end
    else if same_keys pe order.(p - 1) order.(p) then shared := p :: !shared
  done;
  let pos_of_id = Array.make card 0 in
  Array.iteri (fun p id -> pos_of_id.(id) <- p) order;
  let coords = Array.make (card * n) 0 in
  Array.iteri (fun p id -> Array.blit jid (id * n) coords (p * n) n) order;
  let m = Algorithm.num_dependences alg in
  let preds = Array.make (card * m) (-1) in
  for i = 0 to m - 1 do
    let d = Algorithm.dependence alg i in
    let off = ref 0 in
    Array.iteri (fun r x -> off := !off + (x * stride.(r))) d;
    for p = 0 to card - 1 do
      let inside = ref true in
      for r = 0 to n - 1 do
        let x = coords.((p * n) + r) - d.(r) in
        if x < 0 || x > mu.(r) then inside := false
      done;
      if !inside then preds.((p * m) + i) <- pos_of_id.(order.(p) - !off)
    done
  done;
  {
    n;
    m;
    card;
    mu;
    stride;
    pos_of_id;
    coords;
    preds;
    level_off = Array.of_list !offs;
    shared = !shared;
    makespan = time.(order.(card - 1)) - time.(order.(0)) + 1;
    processors = !processors;
    peak_width = !peak;
    block;
  }

let compile ?block (alg : Algorithm.t) tm =
  if not (Schedule.respects tm.Tmap.pi alg.Algorithm.dependences) then
    failwith "Kernel.compile: Pi D > 0 fails; the mapping is not causal";
  let plan = lower ?block alg tm in
  match plan.shared with
  | [] -> plan
  | p :: _ ->
    let j = point plan p and ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
    Printf.ksprintf failwith
      "Kernel.compile: computational conflict at t=%d pe=(%s): points (%s) and (%s)"
      (Tmap.time_of tm j) (ints (Tmap.space_of tm j)) (ints (point plan (p - 1))) (ints j)

type 'v result = {
  lookup : int array -> 'v;
  elapsed_s : float;
  parallel_levels : int;
}

let cells_counter = Obs.Metrics.counter "exec.cells"

(* The lowering of a semantics that carries none: its own [boundary]
   and [compute], one point at a time, over a ['v array].  The fill
   value is never observed: every position is written before any
   consumer reads it (consumers live on strictly later levels). *)
let default_sweep plan (sem : 'v Algorithm.semantics) card =
  let point coords p = Array.sub coords (p * plan.n) plan.n in
  let j0 = point plan.coords 0 in
  let fill =
    if plan.m > 0 then sem.Algorithm.boundary j0 0 else sem.Algorithm.compute j0 [||]
  in
  let values = Array.make card fill in
  let range ~coords ~preds lo hi =
    for p = lo to hi - 1 do
      let j = point coords p in
      let ops =
        Array.init plan.m (fun i ->
            let q = preds.((p * plan.m) + i) in
            if q >= 0 then values.(q) else sem.Algorithm.boundary j i)
      in
      values.(p) <- sem.Algorithm.compute j ops
    done
  in
  { Algorithm.range; get = Array.get values }

let run ?pool plan (sem : 'v Algorithm.semantics) =
  let pool = match pool with Some p -> p | None -> Engine.Pool.create () in
  Obs.Metrics.add cells_counter plan.card;
  let sweep =
    (match sem.Algorithm.lowered with Some f -> f | None -> default_sweep plan sem)
      plan.card
  in
  let exec_range lo hi = sweep.Algorithm.range ~coords:plan.coords ~preds:plan.preds lo hi in
  let parallel_levels = ref 0 in
  let nlevels = Array.length plan.level_off - 1 in
  let t0 = Monotonic_clock.now () in
  Obs.Trace.with_span "exec.wavefront" (fun () ->
      for l = 0 to nlevels - 1 do
        let lo = plan.level_off.(l) and hi = plan.level_off.(l + 1) in
        let width = hi - lo in
        if width <= plan.block || Engine.Pool.jobs pool = 1 then exec_range lo hi
        else begin
          (* PE groups: the sweep is PE-sorted within a level, so a
             contiguous block is a group of adjacent processors. *)
          incr parallel_levels;
          let nchunks = (width + plan.block - 1) / plan.block in
          ignore
            (Engine.Pool.map pool
               (fun c ->
                 let s = lo + (c * plan.block) in
                 exec_range s (min hi (s + plan.block)))
               (List.init nchunks Fun.id))
        end
      done);
  let elapsed_s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
  let lookup j =
    if Array.length j <> plan.n then invalid_arg "Kernel.run: arity mismatch";
    let acc = ref 0 in
    for i = 0 to plan.n - 1 do
      acc := !acc + (j.(i) * plan.stride.(i))
    done;
    sweep.Algorithm.get plan.pos_of_id.(!acc)
  in
  { lookup; elapsed_s; parallel_levels = !parallel_levels }
