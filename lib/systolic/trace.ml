let point_to_string j =
  "("
  ^ String.concat "," (Array.to_list (Array.map string_of_int j))
  ^ ")"

(* The text of every fired cell: [label t pe j] for each event of the
   schedule, the last one winning on a conflict. *)
let cells (alg : Algorithm.t) tm label =
  let cells = Hashtbl.create 256 in
  List.iter
    (fun (t, evs) -> List.iter (fun (pe, j) -> label cells t pe j) evs)
    (Exec.schedule_table alg tm);
  cells

let width cells least = Hashtbl.fold (fun _ s acc -> max acc (String.length s)) cells least

let linear_array_table (alg : Algorithm.t) tm =
  if Tmap.k tm <> 2 then
    invalid_arg "Trace.linear_array_table: array is not 1-dimensional";
  let cell = cells alg tm (fun c t pe j -> Hashtbl.replace c (t, pe.(0)) (point_to_string j)) in
  let times = Hashtbl.fold (fun (t, _) _ acc -> t :: acc) cell [] in
  let tmin = List.fold_left min max_int times and tmax = List.fold_left max min_int times in
  let pes = List.sort_uniq compare (Hashtbl.fold (fun (_, pe) _ acc -> pe :: acc) cell []) in
  let width = width cell 4 in
  let buf = Buffer.create 4096 in
  let row label text =
    Buffer.add_string buf label;
    for t = tmin to tmax do
      Printf.bprintf buf " %*s" width (text t)
    done;
    Buffer.add_char buf '\n'
  in
  row (Printf.sprintf "%6s |" "PE\\t") string_of_int;
  Buffer.add_string buf (String.make (8 + ((tmax - tmin + 1) * (width + 1))) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun pe ->
      row (Printf.sprintf "%6d |" pe) (fun t ->
          Option.value ~default:"" (Hashtbl.find_opt cell (t, pe))))
    pes;
  Buffer.contents buf

(* A 2-D array's PE grid over the bounding box of the PEs that [label]
   gives a text, every other cell showing a dot. *)
let render_grid name (alg : Algorithm.t) tm ~least label =
  if Tmap.k tm <> 3 then invalid_arg (name ^ ": array is not 2-dimensional");
  let cell = cells alg tm (fun c t pe j -> label c t (pe.(0), pe.(1)) j) in
  let x0, x1, y0, y1 =
    Hashtbl.fold
      (fun (x, y) _ (x0, x1, y0, y1) -> (min x0 x, max x1 x, min y0 y, max y1 y))
      cell (max_int, min_int, max_int, min_int)
  in
  let cell_width = width cell least in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%*s" (cell_width + 1) "");
  for y = y0 to y1 do
    Printf.bprintf buf " %*d" cell_width y
  done;
  Buffer.add_char buf '\n';
  for x = x0 to x1 do
    Printf.bprintf buf "%*d " cell_width x;
    for y = y0 to y1 do
      Printf.bprintf buf " %*s"
        cell_width (Option.value ~default:"." (Hashtbl.find_opt cell (x, y)))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let grid_snapshot alg tm ~time =
  render_grid "Trace.grid_snapshot" alg tm ~least:3 (fun c t pe j ->
      if t = time then Hashtbl.replace c pe (point_to_string j)
      else if not (Hashtbl.mem c pe) then Hashtbl.replace c pe ".")

let grid_activity alg tm =
  render_grid "Trace.grid_activity" alg tm ~least:1 (fun c _ pe _ ->
      let n = Option.fold ~none:0 ~some:int_of_string (Hashtbl.find_opt c pe) in
      Hashtbl.replace c pe (string_of_int (n + 1)))

let firing_list (alg : Algorithm.t) tm =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (t, evs) ->
      Printf.bprintf buf "t=%3d:" t;
      List.iter
        (fun (pe, j) -> Printf.bprintf buf " %s<-%s" (point_to_string pe) (point_to_string j))
        evs;
      Buffer.add_char buf '\n')
    (Exec.schedule_table alg tm);
  Buffer.contents buf
