type objective = Processors | Processors_plus_wire

type result = {
  s : Intmat.t;
  processors : int;
  wire_length : int;
  candidates_tried : int;
}

(* Enumerate all row vectors of dimension n with entries in
   [-bound, bound] whose first nonzero entry is positive (negating a
   row of S changes neither the PE count nor conflict vectors). *)
let candidate_rows n bound =
  let acc = ref [] in
  let row = Array.make n 0 in
  let rec go i ~nonzero =
    if i = n then begin
      if nonzero then acc := Array.copy row :: !acc
    end
    else begin
      let lo = if nonzero then -bound else 0 in
      for v = lo to bound do
        row.(i) <- v;
        go (i + 1) ~nonzero:(nonzero || v <> 0);
        row.(i) <- 0
      done
    end
  in
  go 0 ~nonzero:false;
  List.rev !acc

(* All ways to pick [rows] candidate rows with strictly increasing
   positions in the candidate list: row order within S only permutes
   PE coordinates, so combinations suffice. *)
let rec choose k lst =
  if k = 0 then [ [] ]
  else
    match lst with
    | [] -> []
    | x :: rest -> List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

let optimize ?(entry_bound = 1) ?(objective = Processors_plus_wire) ?valid
    (alg : Algorithm.t) ~pi ~k =
  Obs.Trace.with_span "space_opt.optimize" @@ fun () ->
  let n = Algorithm.dim alg in
  let d = alg.Algorithm.dependences in
  let m = Algorithm.num_dependences alg in
  if k < 2 || k > n then invalid_arg "Space_opt.optimize: need 2 <= k <= n";
  if not (Schedule.respects pi d) then
    invalid_arg "Space_opt.optimize: Pi does not respect the dependences";
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let valid =
    match valid with
    | Some f -> f
    | None -> fun t -> Intmat.rank t = k && Family.decide ~mu t
  in
  let slack = Array.init m (fun i -> Zint.to_int (Intvec.dot pi (Intmat.col d i))) in
  let tried = ref 0 in
  let best = ref None in
  let consider s =
    incr tried;
    let t = Intmat.append_row s pi in
    if valid t then begin
      (* Routability and wire length: one nearest-neighbor hop per unit
         of |S d_i| per array dimension, within the schedule slack. *)
      let sd = Intmat.mul s d in
      let hops i =
        let acc = ref 0 in
        for r = 0 to k - 2 do
          acc := !acc + abs (Zint.to_int (Intmat.get sd r i))
        done;
        !acc
      in
      let routable = ref true in
      let wire = ref 0 in
      for i = 0 to m - 1 do
        let h = hops i in
        if h > slack.(i) then routable := false;
        wire := !wire + h
      done;
      if !routable then begin
        let tm = Tmap.make ~s ~pi in
        let procs = List.length (Tmap.processors tm alg.Algorithm.index_set) in
        let cost =
          match objective with
          | Processors -> procs
          | Processors_plus_wire -> procs + !wire
        in
        match !best with
        | Some (bcost, _) when bcost <= cost -> ()
        | Some _ | None -> best := Some (cost, { s; processors = procs; wire_length = !wire; candidates_tried = 0 })
      end
    end
  in
  let rows = List.map Intvec.of_int_array (candidate_rows n entry_bound) in
  List.iter
    (fun combo -> consider (Intmat.of_rows combo))
    (choose (k - 1) rows);
  match !best with
  | Some (_, r) -> Some { r with candidates_tried = !tried }
  | None -> None

let optimize_joint ?entry_bound ?objective ?valid ?max_time_objective (alg : Algorithm.t)
    ~k =
  let mu = Index_set.bounds alg.Algorithm.index_set in
  let d = alg.Algorithm.dependences in
  Procedure51.first_level ?max_objective:max_time_objective ~mu (fun cost ->
      List.find_map
        (fun pi ->
          if not (Schedule.respects pi d) then None
          else
            match optimize ?entry_bound ?objective ?valid alg ~pi ~k with
            | Some r -> Some (pi, r)
            | None -> None)
        (Procedure51.candidates_at_cost ~mu cost))
