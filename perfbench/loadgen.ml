(* The load generator: one raw Unix-socket connection speaking the v2
   wire protocol, one thread, a fixed window of pipelined analyze
   requests (a closed loop), and a check of every reply against a
   verdict the benchmark computed in process.

   It stays cheap on purpose: request frames are encoded before the
   timed phase, replies go through the library's own [Wire] decoder,
   and a ['V'] verdict frame is compared as a record.  A JSON reply (the
   router answers v2 clients with ['J'] frames) is parsed, which is part
   of what the router costs its clients. *)

module W = Server.Wire
module P = Server.Protocol

type conn = { fd : Unix.file_descr; dec : W.decoder; buf : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; dec = W.decoder W.V1; buf = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send c s = write_all c.fd s 0 (String.length s)

let reply_timeout = 30.

(* Read one chunk into the decoder: [`Data], [`Eof] on end of stream,
   or [`Timeout] when nothing came for [reply_timeout] seconds. *)
let read_chunk c =
  match Unix.select [ c.fd ] [] [] reply_timeout with
  | [], _, _ -> `Timeout
  | _ -> (
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> `Eof
    | n ->
      W.feed c.dec c.buf 0 n;
      `Data)

let rec next_frame c =
  match W.next c.dec with
  | W.Frame f -> f
  | W.Corrupt msg -> failwith ("corrupt reply stream: " ^ msg)
  | W.Need_more -> (
    match read_chunk c with
    | `Data -> next_frame c
    | `Eof -> failwith "connection closed by peer"
    | `Timeout -> failwith "no reply within the timeout")

(* One unpipelined JSON request in the connection's current dialect. *)
let request c doc =
  send c (W.encode (W.decoder_version c.dec) (W.Text (Json.to_string doc)));
  match next_frame c with
  | W.Text s -> (
    match Json.parse ~max_bytes:(1 lsl 24) s with
    | Ok j -> j
    | Error e -> failwith ("bad reply: " ^ e))
  | _ -> failwith "expected a JSON reply"

let hello_v2 c =
  let r = request c (P.hello ~id:(Json.Int 0) ~transport:"binary" ()) in
  if not (P.reply_ok r) then failwith "hello refused";
  W.set_version c.dec W.V2

let stats c = request c (Json.Obj [ ("op", Json.Str "stats"); ("id", Json.Int 1) ])

(* A dotted path into a stats reply, e.g. ["store"; "misses"]. *)
let field j path =
  match
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> failwith ("stats reply lacks " ^ String.concat "." path)

let encode_analyze ~id (inst : Check.Instance.t) =
  W.encode W.V2
    (W.Bin_analyze
       { id; deadline_ms = None; mu = inst.Check.Instance.mu; tmat = inst.Check.Instance.tmat })

(* One slice of a timed phase: its wall seconds, the verified replies
   in it, and the share of the CPU time the machine asked for that the
   host granted meanwhile (Sut.granted). *)
type slice = { secs : float; ops : int; granted : float }

(* What one timed phase observed. *)
type result = {
  mutable completed : int;
      (** Ops finished: replies received, verified or not, plus requests
          whose reply never came. *)
  mutable failed : int;
      (** Error replies, verdicts that differ, and requests that timed
          out. *)
  mutable json_replies : int;
  mutable slices : slice list;  (** Newest first. *)
  mutable latencies : float list;  (** Seconds, traced phases only. *)
}

let verified r = r.completed - r.failed

(* Drive [count] ops through a window of pipelined requests.  [frame i]
   is the encoded request of the phase's [i]-th op; [expect id] is the
   verdict a reply carrying wire id [id] must hold.  Sending stops after
   [seconds] (or when the ops run out) and the window drains;
   [on_slice] runs at the start and at every [slice_s] boundary, where
   callers read the processes' CPU, and [at_mark] once, when [mark]
   replies are in.  With [pause], each boundary first drains the window;
   [pause] then runs, with nothing in flight and outside any slice,
   before every slice opens, the first one included.  If no reply
   arrives for [reply_timeout] seconds, every request still in flight
   counts as failed and the phase ends. *)
let drive ?(mark = max_int) ?(at_mark = ignore) ?pause c ~window ~count ~frame
    ~(expect : int -> P.verdict_wire option) ~seconds ~slice_s ~trace ~(on_slice : unit -> unit) =
  let r = { completed = 0; failed = 0; json_replies = 0; slices = []; latencies = [] } in
  let sent_at = Hashtbl.create 64 in
  let next = ref 0 and inflight = ref 0 and stopped = ref false and draining = ref false in
  let out = Buffer.create 4096 in
  let open_at = ref 0. and open_ops = ref 0 and open_host = ref (Sut.host_cpu ()) in
  let open_slice now =
    open_at := now;
    open_ops := verified r;
    open_host := Sut.host_cpu ()
  in
  let close_slice now =
    on_slice ();
    r.slices <-
      { secs = now -. !open_at; ops = verified r - !open_ops; granted = Sut.granted !open_host (Sut.host_cpu ()) }
      :: r.slices
  in
  Option.iter (fun p -> p ()) pause;
  let t0 = Sample.now () in
  let stop_at = t0 +. seconds in
  let next_slice = ref (t0 +. slice_s) in
  on_slice ();
  open_slice t0;
  let fill_window now =
    Buffer.clear out;
    while !inflight < window && !next < count && not (!stopped || !draining) do
      let f = frame !next in
      Buffer.add_string out f;
      (* The wire id sits right after the length prefix and the tag. *)
      if trace then Hashtbl.replace sent_at (Int64.to_int (String.get_int64_be f 5)) now;
      incr next;
      incr inflight
    done;
    if Buffer.length out > 0 then send c (Buffer.contents out)
  in
  let record id ok now =
    r.completed <- r.completed + 1;
    if not ok then r.failed <- r.failed + 1;
    decr inflight;
    if trace then
      match Hashtbl.find_opt sent_at id with
      | Some t ->
        Hashtbl.remove sent_at id;
        r.latencies <- (now -. t) :: r.latencies
      | None -> ()
  in
  let rec pull now =
    match W.next c.dec with
    | W.Need_more -> ()
    | W.Corrupt msg -> failwith ("corrupt reply stream: " ^ msg)
    | W.Frame (W.Bin_verdict { id; verdict; store = _ }) ->
      record id (expect id = Some verdict) now;
      pull now
    | W.Frame (W.Text s) ->
      r.json_replies <- r.json_replies + 1;
      (match Json.parse s with
      | Ok j -> (
        match Json.member "id" j with
        | Some (Json.Int id) ->
          let ok =
            P.reply_ok j
            && match expect id with Some e -> Json.member "verdict" j = Some (P.json_of_wire e) | None -> false
          in
          record id ok now
        | _ -> failwith ("reply without an id: " ^ s))
      | Error e -> failwith ("unparsable reply: " ^ e));
      pull now
    | W.Frame (W.Bin_analyze _) -> failwith "request frame in the reply stream"
  in
  (* A slice boundary: close the slice, then either stop or, after the
     pause, open the next one. *)
  let boundary now =
    close_slice now;
    if now >= stop_at then stopped := true
    else begin
      let resume =
        match pause with
        | None -> now
        | Some p ->
          p ();
          Sample.now ()
      in
      draining := false;
      open_slice resume;
      next_slice := resume +. slice_s
    end
  in
  fill_window t0;
  while !inflight > 0 do
    match read_chunk c with
    | `Eof -> failwith "connection closed by peer"
    | `Timeout ->
      r.completed <- r.completed + !inflight;
      r.failed <- r.failed + !inflight;
      inflight := 0;
      close_slice (Sample.now ())
    | `Data ->
      let now = Sample.now () in
      let before = r.completed in
      pull now;
      if before < mark && r.completed >= mark then at_mark ();
      if now >= !next_slice && not (!stopped || !draining) then
        if pause = None then boundary now else draining := true;
      let now =
        if !draining && !inflight = 0 then begin
          boundary (Sample.now ());
          Sample.now ()
        end
        else now
      in
      fill_window now
  done;
  r.latencies <- List.rev r.latencies;
  r

(* Verified ops and wall seconds over the whole slices: the timed
   window, without the final drain and the pauses. *)
let window r = List.fold_left (fun (ops, secs) s -> (ops + s.ops, secs +. s.secs)) (0, 0.) r.slices

(* The share of demanded CPU the host granted over the window. *)
let granted r =
  let _, secs = window r in
  if secs <= 0. then 1. else List.fold_left (fun acc s -> acc +. (s.secs *. s.granted)) 0. r.slices /. secs
