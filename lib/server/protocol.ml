type verdict_wire = Store.entry = {
  conflict_free : bool;
  full_rank : bool;
  decided_by : string;
  witness : int list option;
}

let wire_of_verdict = Store.entry_of_verdict

let json_of_wire w =
  Json.Obj
    [
      ("conflict_free", Json.Bool w.conflict_free);
      ("full_rank", Json.Bool w.full_rank);
      ("decided_by", Json.Str w.decided_by);
      ("witness", Json.option Json.ints w.witness);
    ]

(* ----------------------------- requests ---------------------------- *)

type request =
  | Analyze of { mu : int array; tmat : Intmat.t; deadline_ms : int option }
  | Search of {
      algorithm : string;
      mu : int;
      s : Intmat.t option;
      pareto : bool;
      array_dim : int;
      deadline_ms : int option;
    }
  | Simulate of { algorithm : string; mu : int; s : Intmat.t option; pi : Intvec.t }
  | Replay of { instance : Check.Instance.t }
  | Ship of { seq : int; line : string }
  | Ping
  | Stats
  | Drain
  | Hello of { transport : string }

type envelope = { id : Json.t; req : request }

let op_name = function
  | Analyze _ -> "analyze"
  | Search _ -> "search"
  | Simulate _ -> "simulate"
  | Replay _ -> "replay"
  | Ship _ -> "ship"
  | Ping -> "ping"
  | Stats -> "stats"
  | Drain -> "drain"
  | Hello _ -> "hello"

let deadline_ms = function
  | Analyze { deadline_ms; _ } | Search { deadline_ms; _ } -> deadline_ms
  | Simulate _ | Replay _ | Ship _ | Ping | Stats | Drain | Hello _ -> None

let max_line_bytes = 1024 * 1024

(* ------------------------- field extraction ------------------------ *)

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let member name json = Json.member name json

let opt_member name json =
  match member name json with Some Json.Null | None -> None | v -> v

let require name json =
  match opt_member name json with
  | Some v -> v
  | None -> failf "missing field %S" name

let to_int name = function
  | Json.Int i -> i
  | _ -> failf "field %S must be an integer" name

let to_string name = function
  | Json.Str s -> s
  | _ -> failf "field %S must be a string" name

let to_bool name = function
  | Json.Bool b -> b
  | _ -> failf "field %S must be a boolean" name

let to_int_list name = function
  | Json.Arr xs -> List.map (to_int name) xs
  | _ -> failf "field %S must be an array of integers" name

let to_matrix name = function
  | Json.Arr rows when rows <> [] -> (
    match Intmat.of_ints (List.map (to_int_list name) rows) with
    | m -> m
    | exception Invalid_argument msg -> failf "field %S: %s" name msg)
  | _ -> failf "field %S must be a non-empty array of integer rows" name

let opt_int name json = Option.map (to_int name) (opt_member name json)

(* A negative deadline has no encoding on the binary transport, so it
   is refused here rather than read as "none" on one path and as
   already spent on another. *)
let opt_deadline json =
  match opt_int "deadline_ms" json with
  | Some ms when ms < 0 -> failf "field \"deadline_ms\" must be >= 0"
  | d -> d

let opt_matrix name json = Option.map (to_matrix name) (opt_member name json)

let parse_request json =
  match json with
  | Json.Obj _ -> (
    let id = match member "id" json with Some v -> v | None -> Json.Null in
    match
      let op = to_string "op" (require "op" json) in
      let req =
        match op with
        | "analyze" ->
          let tmat = to_matrix "t" (require "t" json) in
          let mu = Array.of_list (to_int_list "mu" (require "mu" json)) in
          if Array.length mu <> Intmat.cols tmat then
            failf "mu arity %d does not match t columns %d" (Array.length mu)
              (Intmat.cols tmat);
          if Array.exists (fun m -> m < 1) mu then failf "mu entries must be >= 1";
          Analyze { mu; tmat; deadline_ms = opt_deadline json }
        | "search" ->
          Search
            {
              algorithm = to_string "algorithm" (require "algorithm" json);
              mu = to_int "mu" (require "mu" json);
              s = opt_matrix "s" json;
              pareto =
                (match opt_member "pareto" json with
                | Some v -> to_bool "pareto" v
                | None -> false);
              array_dim = Option.value ~default:1 (opt_int "array_dim" json);
              deadline_ms = opt_deadline json;
            }
        | "simulate" ->
          Simulate
            {
              algorithm = to_string "algorithm" (require "algorithm" json);
              mu = to_int "mu" (require "mu" json);
              s = opt_matrix "s" json;
              pi = Intvec.of_ints (to_int_list "pi" (require "pi" json));
            }
        | "replay" ->
          let instance =
            match opt_member "case" json with
            | Some v -> (
              match Check.Instance.of_string (to_string "case" v) with
              | inst -> inst
              | exception Failure msg -> failf "field \"case\": %s" msg)
            | None -> (
              let tmat = to_matrix "t" (require "t" json) in
              let mu = Array.of_list (to_int_list "mu" (require "mu" json)) in
              match Check.Instance.make ~mu tmat with
              | inst -> inst
              | exception Invalid_argument msg -> failf "bad instance: %s" msg)
          in
          Replay { instance }
        | "ship" ->
          let seq = to_int "seq" (require "seq" json) in
          if seq < 0 then failf "field \"seq\" must be >= 0";
          let line = to_string "record" (require "record" json) in
          if String.contains line '\n' then failf "field \"record\" must be one line";
          Ship { seq; line }
        | "ping" -> Ping
        | "stats" -> Stats
        | "drain" -> Drain
        | "hello" ->
          Hello
            {
              transport =
                (match opt_member "transport" json with
                | Some v -> to_string "transport" v
                | None -> "json");
            }
        | other -> failf "unknown op %S" other
      in
      { id; req }
    with
    | env -> Ok env
    | exception Bad msg -> Error msg)
  | _ -> Error "request must be a JSON object"

(* ------------------------------ builders --------------------------- *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", id) :: fields

let json_of_mat m = Json.Arr (List.map Json.ints (Intmat.to_ints m))

let analyze ?id ?deadline_ms ~mu tmat =
  Json.Obj
    (with_id id
       ([
          ("op", Json.Str "analyze");
          ("t", json_of_mat tmat);
          ("mu", Json.ints (Array.to_list mu));
        ]
       @ match deadline_ms with None -> [] | Some ms -> [ ("deadline_ms", Json.Int ms) ]))

let search ?id ?deadline_ms ?s ?(pareto = false) ?(array_dim = 1) ~algorithm ~mu () =
  Json.Obj
    (with_id id
       ([
          ("op", Json.Str "search");
          ("algorithm", Json.Str algorithm);
          ("mu", Json.Int mu);
          ("pareto", Json.Bool pareto);
          ("array_dim", Json.Int array_dim);
        ]
       @ (match s with None -> [] | Some s -> [ ("s", json_of_mat s) ])
       @ match deadline_ms with None -> [] | Some ms -> [ ("deadline_ms", Json.Int ms) ]))

let simulate ?id ?s ~algorithm ~mu ~pi () =
  Json.Obj
    (with_id id
       ([
          ("op", Json.Str "simulate");
          ("algorithm", Json.Str algorithm);
          ("mu", Json.Int mu);
          ("pi", Json.ints (Intvec.to_ints pi));
        ]
       @ match s with None -> [] | Some s -> [ ("s", json_of_mat s) ]))

let replay ?id instance =
  Json.Obj
    (with_id id
       [ ("op", Json.Str "replay"); ("case", Json.Str (Check.Instance.to_string instance)) ])

let ship ?id ~seq ~record () =
  Json.Obj
    (with_id id
       [ ("op", Json.Str "ship"); ("seq", Json.Int seq); ("record", Json.Str record) ])

let simple op ?id () = Json.Obj (with_id id [ ("op", Json.Str op) ])
let ping = simple "ping"
let stats_request = simple "stats"
let drain = simple "drain"

let hello ?id ~transport () =
  Json.Obj (with_id id [ ("op", Json.Str "hello"); ("transport", Json.Str transport) ])

(* ------------------------------ replies ---------------------------- *)

let ok_reply ~id ~op fields =
  Json.Obj (("id", id) :: ("ok", Json.Bool true) :: ("op", Json.Str op) :: fields)

let error_reply ~id ~code ~detail =
  Json.Obj
    [
      ("id", id);
      ("ok", Json.Bool false);
      ("error", Json.Str code);
      ("detail", Json.Str detail);
    ]

let reply_id json = match member "id" json with Some v -> v | None -> Json.Null
let reply_ok json = match member "ok" json with Some (Json.Bool b) -> b | _ -> false

let error_code json =
  match member "error" json with Some (Json.Str s) -> Some s | _ -> None
