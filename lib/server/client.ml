type addr = [ `Unix of string | `Tcp of string * int ]

let sockaddr : addr -> Unix.sockaddr = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) -> Unix.ADDR_INET ((Unix.gethostbyname host).h_addr_list.(0), port)

(* ----------------------------- connections --------------------------- *)

type conn = { conn : Conn.t; chunk : Bytes.t }

let close c = Conn.close c.conn

(* Wait in [Poll.wait] until [c] is readable, writing queued output
   meanwhile; [timeout_ms < 0] waits forever.  An interrupted wait
   waits again for what is left of the timeout. *)
let await c ~timeout_ms =
  let deadline = Unix.gettimeofday () +. (timeout_ms /. 1000.) in
  let rec go () =
    let left =
      if timeout_ms < 0. then -1
      else max 0 (int_of_float (Float.ceil ((deadline -. Unix.gettimeofday ()) *. 1000.)))
    in
    let want = { Poll.want_read = true; want_write = Conn.flush c.conn } in
    match Poll.wait [ (Conn.fd c.conn, want) ] ~timeout_ms:left with
    | (_, ev) :: _ when ev.Poll.ready_read || ev.Poll.ready_error -> true
    | [] when left = 0 -> false
    | _ -> go ()
  in
  go ()

(* The next reply frame, writing queued output while waiting for it. *)
let rec next_frame c ~timeout_ms =
  match Wire.next (Conn.decoder c.conn) with
  | Wire.Frame f -> f
  | Wire.Corrupt msg -> failwith ("Client.request: corrupt reply stream: " ^ msg)
  | Wire.Need_more ->
    if not (await c ~timeout_ms) then failwith "Client.request: reply timed out";
    (match Conn.read c.conn c.chunk with
    | `Eof -> failwith "Client.request: connection closed by server"
    | `Data | `Blocked -> ());
    next_frame c ~timeout_ms

let send c json = ignore (Conn.send ~flush:true c.conn (Conn.doc json))

(* A JSON request is answered by a JSON document: ['V'] frames only
   ever answer ['A'] frames, which {!load} alone sends. *)
let read_reply c ~timeout_ms =
  match next_frame c ~timeout_ms with
  | Wire.Text line -> (
    match Json.parse line with
    | Ok reply -> reply
    | Error msg -> failwith ("Client.request: unparsable reply: " ^ msg))
  | Wire.Bin_verdict _ | Wire.Bin_analyze _ ->
    failwith "Client.request: unexpected binary frame from server"

let request c json =
  send c json;
  read_reply c ~timeout_ms:(-1.)

(* The v2 hello is a blocking round trip with nothing sent before the
   ack, so the server reads it alone (its per-read fault consults stay
   where they were) and the ack is the switch point for the input. *)
let connect_within ~timeout_ms ~transport addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sa = sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) SOCK_STREAM 0 in
  match
    Unix.connect fd sa;
    Unix.set_nonblock fd;
    let c = { conn = Conn.create fd; chunk = Bytes.create 65536 } in
    if transport = Wire.V2 then begin
      Conn.upgrade c.conn Wire.V2;
      if not (Protocol.reply_ok (read_reply c ~timeout_ms)) then
        failwith "Client: server refused the binary transport";
      Wire.set_version (Conn.decoder c.conn) Wire.V2
    end;
    c
  with
  | c -> c
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let connect ?(transport = Wire.V1) addr = connect_within ~timeout_ms:(-1.) ~transport addr

(* --------------------------- retrying session ----------------------- *)

type retry = {
  max_attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  timeout_ms : float;
  retry_seed : int;
  retry_budget : int;
  retry_refill_per_s : float;
}

let default_retry =
  {
    max_attempts = 8;
    base_delay_ms = 1.;
    max_delay_ms = 100.;
    timeout_ms = 2000.;
    retry_seed = 0;
    retry_budget = 128;
    retry_refill_per_s = 64.;
  }

type session = {
  s_addr : addr;
  s_retry : retry;
  s_transport : Wire.version;
  mutable s_conn : conn option;
  mutable s_rng : int;
  mutable s_next_id : int;
  (* Retry token bucket: every re-issue (per-attempt backoff aside)
     spends a token, tokens refill at a steady rate, so a session can
     never storm a slow or recovering server with an unbounded retry
     amplification — the bucket caps the burst, the refill caps the
     sustained rate. *)
  mutable s_tokens : float;
  mutable s_refill_at : float;
}

let session ?(retry = default_retry) ?(transport = Wire.V1) addr =
  if retry.max_attempts < 1 then invalid_arg "Client.session: max_attempts must be >= 1";
  {
    s_addr = addr;
    s_retry = retry;
    s_transport = transport;
    s_conn = None;
    (* [lor 1] keeps a zero seed from pinning the LCG at zero. *)
    s_rng = (retry.retry_seed * 2654435761) lor 1;
    s_next_id = 0;
    s_tokens = float_of_int (max 0 retry.retry_budget);
    s_refill_at = Unix.gettimeofday ();
  }

let close_session s =
  Option.iter close s.s_conn;
  s.s_conn <- None

(* Deterministic jitter: a tiny LCG advanced per retry, seeded from
   [retry_seed], so a chaos run's whole retry schedule replays. *)
let jitter s =
  s.s_rng <- ((s.s_rng * 1103515245) + 12345) land 0x3FFFFFFF;
  float_of_int (s.s_rng mod 1000) /. 1000.

(* Exponential backoff with full jitter in [d/2, d]: concurrent
   retriers spread out, and the delay never collapses to zero. *)
let backoff s attempt =
  let r = s.s_retry in
  let d = Float.min r.max_delay_ms (r.base_delay_ms *. (2. ** float_of_int (attempt - 1))) in
  d *. (0.5 +. (0.5 *. jitter s)) /. 1000.

(* Every wait of the session, the hello's included, is bounded by
   [timeout_ms]: a swallowed reply stalls it no longer than that, and
   the timeout is a retriable transport error like any other. *)
let session_conn s =
  match s.s_conn with
  | Some c -> c
  | None ->
    let c = connect_within ~timeout_ms:s.s_retry.timeout_ms ~transport:s.s_transport s.s_addr in
    s.s_conn <- Some c;
    c

let retriable_code reply =
  match Protocol.error_code reply with
  | Some ("overloaded" | "draining") -> true
  | _ -> false

(* [retry_budget <= 0] means unlimited (the pre-budget behavior);
   otherwise a retry happens only if a token is available right now.
   Refill is continuous at [retry_refill_per_s], capped at the bucket
   size. *)
let take_retry_token s =
  let r = s.s_retry in
  if r.retry_budget <= 0 then true
  else begin
    let now = Unix.gettimeofday () in
    let elapsed = Float.max 0. (now -. s.s_refill_at) in
    s.s_refill_at <- now;
    s.s_tokens <-
      Float.min
        (float_of_int r.retry_budget)
        (s.s_tokens +. (elapsed *. r.retry_refill_per_s));
    if s.s_tokens >= 1. then begin
      s.s_tokens <- s.s_tokens -. 1.;
      true
    end
    else false
  end

let call s json =
  (* Stamp a session-unique id when the caller did not: the id is the
     dedupe key that makes re-issue after a lost reply idempotent. *)
  let json =
    match Json.member "id" json with
    | Some _ -> json
    | None -> (
      s.s_next_id <- s.s_next_id + 1;
      match json with
      | Json.Obj fields -> Json.Obj (("id", Json.Int s.s_next_id) :: fields)
      | other -> other)
  in
  let want_id = Json.member "id" json in
  let attempt_once () =
    let c = session_conn s in
    send c json;
    (* Discard replies whose id is not ours: a late reply to an
       earlier, timed-out request on this same connection must not be
       mis-attributed to the re-issued one. *)
    let rec read_matching () =
      let reply = read_reply c ~timeout_ms:s.s_retry.timeout_ms in
      if Json.member "id" reply = want_id then reply else read_matching ()
    in
    read_matching ()
  in
  let rec go attempt =
    match attempt_once () with
    | reply ->
      if
        retriable_code reply
        && attempt < s.s_retry.max_attempts
        && take_retry_token s
      then begin
        Unix.sleepf (backoff s attempt);
        go (attempt + 1)
      end
      else Ok (reply, attempt)
    | exception e ->
      (* Any transport failure — reset, EOF, timeout — voids the
         connection; the next attempt reconnects from scratch. *)
      close_session s;
      if attempt < s.s_retry.max_attempts && take_retry_token s then begin
        Unix.sleepf (backoff s attempt);
        go (attempt + 1)
      end
      else Error (Printexc.to_string e)
  in
  go 1

(* ---------------------------- load generator ------------------------ *)

type load_config = {
  requests : int;
  concurrency : int;
  distinct : int;
  seed : int;
  size : int;
  verify : bool;
  deadline_ms : int option;
  transport : Wire.version;
  pipeline : int;
}

let default_load =
  {
    requests = 1000;
    concurrency = 8;
    distinct = 64;
    seed = 1;
    size = 4;
    verify = true;
    deadline_ms = None;
    transport = Wire.V1;
    pipeline = 1;
  }

type load_report = {
  sent : int;
  ok : int;
  shed : int;
  draining : int;
  deadline_exceeded : int;
  errors : int;
  disagreements : int;
  transport : string;
  pipeline : int;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  wall_s : float;
  rps : float;
}

let h_latency = Obs.Metrics.histogram "client.request_ms"

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let expected_wire (inst : Check.Instance.t) =
  Protocol.wire_of_verdict (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)

let expected_verdict inst = Json.to_string (Protocol.json_of_wire (expected_wire inst))

(* One load connection; [inflight] counts its entries in the table of
   requests awaiting a reply. *)
type lconn = { c : conn; mutable inflight : int }

let live l = not (Conn.closed l.c.conn)

let load_any addrs cfg =
  if addrs = [] then invalid_arg "Client.load: at least one address";
  if cfg.requests < 1 then invalid_arg "Client.load: requests must be >= 1";
  if cfg.concurrency < 1 then invalid_arg "Client.load: concurrency must be >= 1";
  if cfg.distinct < 1 then invalid_arg "Client.load: distinct must be >= 1";
  if cfg.pipeline < 1 then invalid_arg "Client.load: pipeline must be >= 1";
  let addrs = Array.of_list addrs in
  let instances =
    Array.init cfg.distinct (fun i -> Check.Gen.ith ~seed:cfg.seed ~size:cfg.size i)
  in
  let expected = if cfg.verify then Array.map expected_wire instances else [||] in
  let latencies = Array.make cfg.requests nan in
  let ok = ref 0 and shed = ref 0 and draining = ref 0 and deadline_exceeded = ref 0 in
  let errors = ref 0 and disagreements = ref 0 in
  let check i same =
    incr ok;
    if cfg.verify && not (same expected.(i mod cfg.distinct)) then incr disagreements
  in
  (* A ['V'] frame is checked as the record it carries, a JSON reply by
     the bytes of its [verdict] object. *)
  let classify i = function
    | `Verdict (v : Protocol.verdict_wire) -> check i (fun w -> v = w)
    | `Reply reply when Protocol.reply_ok reply ->
      let verdict = Json.member "verdict" reply in
      check i (fun w ->
          Option.map Json.to_string verdict = Some (Json.to_string (Protocol.json_of_wire w)))
    | `Reply reply -> (
      match Protocol.error_code reply with
      | Some "overloaded" -> incr shed
      | Some "draining" -> incr draining
      (* An expired deadline is an answer, not a failure: the server
         honored the deadline the caller asked for. *)
      | Some "deadline_exceeded" -> incr deadline_exceeded
      | _ -> incr errors)
  in
  (* Request id (its index) -> connection and send time. *)
  let outstanding : (int, lconn * float) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  (* A dead connection fails what it has in flight; its unsent share
     stays with [next] for the connections still alive. *)
  let fail l =
    if live l then begin
      close l.c;
      Hashtbl.filter_map_inplace
        (fun _ ((owner, _) as v) -> if owner == l then (incr errors; None) else Some v)
        outstanding
    end
  in
  let fill l =
    while live l && l.inflight < cfg.pipeline && !next < cfg.requests do
      let i = !next and inst = instances.(!next mod cfg.distinct) in
      incr next;
      Hashtbl.replace outstanding i (l, Unix.gettimeofday ());
      l.inflight <- l.inflight + 1;
      ignore
        (Conn.send l.c.conn
           (Conn.analyze_request ~id:i ?deadline_ms:cfg.deadline_ms
              ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat))
    done
  in
  (* Replies may overtake each other (the server answers warm requests
     inline, cold ones from its pool), so they match by id; a reply
     nobody awaits on this connection breaks it. *)
  let complete l i reply =
    match Hashtbl.find_opt outstanding i with
    | Some (owner, sent_at) when owner == l ->
      Hashtbl.remove outstanding i;
      l.inflight <- l.inflight - 1;
      let ms = 1000. *. (Unix.gettimeofday () -. sent_at) in
      latencies.(i) <- ms;
      Obs.Metrics.observe h_latency ms;
      classify i reply
    | _ -> fail l
  in
  let rec pull l =
    if live l then
      match Wire.next (Conn.decoder l.c.conn) with
      | Wire.Need_more -> ()
      | Wire.Frame (Wire.Bin_verdict { id; verdict; _ }) ->
        complete l id (`Verdict verdict);
        pull l
      | Wire.Frame (Wire.Text line) -> (
        match Result.map (fun r -> (Protocol.reply_id r, r)) (Json.parse line) with
        | Ok (Json.Int i, reply) ->
          complete l i (`Reply reply);
          pull l
        | _ -> fail l)
      | Wire.Frame (Wire.Bin_analyze _) | Wire.Corrupt _ -> fail l
  in
  let drive conns =
    let r = Reactor.create () in
    List.iter
      (fun l -> Reactor.add r l.c.conn { Reactor.on_read = (fun () -> pull l); on_hangup = (fun () -> fail l) })
      conns;
    Reactor.run r (fun () ->
        List.iter fill conns;
        if Hashtbl.length outstanding > 0 then Some infinity else None);
    Reactor.close r
  in
  let t0 = Unix.gettimeofday () in
  (* Every connection opens, round-robin over the addresses, before the
     first request: a refused connect or hello fails the whole run. *)
  let opened = ref [] in
  (match
     for w = 0 to cfg.concurrency - 1 do
       let c = connect ~transport:cfg.transport addrs.(w mod Array.length addrs) in
       opened := { c; inflight = 0 } :: !opened
     done
   with
  | () -> drive (List.rev !opened)
  | exception exn -> Printf.eprintf "client: connect failed: %s\n%!" (Printexc.to_string exn));
  List.iter (fun l -> close l.c) !opened;
  (* What no connection could send. *)
  errors := !errors + (cfg.requests - !next);
  let wall_s = Unix.gettimeofday () -. t0 in
  let measured =
    Array.of_list
      (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latencies))
  in
  Array.sort compare measured;
  {
    sent = cfg.requests;
    ok = !ok;
    shed = !shed;
    draining = !draining;
    deadline_exceeded = !deadline_exceeded;
    errors = !errors;
    disagreements = !disagreements;
    transport = Wire.version_name cfg.transport;
    pipeline = cfg.pipeline;
    p50_ms = percentile measured 0.50;
    p95_ms = percentile measured 0.95;
    p99_ms = percentile measured 0.99;
    max_ms = (if Array.length measured = 0 then 0. else measured.(Array.length measured - 1));
    wall_s;
    rps = (if wall_s > 0. then float_of_int cfg.requests /. wall_s else 0.);
  }

let load addr cfg = load_any [ addr ] cfg

let json_of_load_report r =
  Json.Obj
    [
      ("sent", Json.Int r.sent);
      ("ok", Json.Int r.ok);
      ("shed", Json.Int r.shed);
      ("draining", Json.Int r.draining);
      ("deadline_exceeded", Json.Int r.deadline_exceeded);
      ("errors", Json.Int r.errors);
      ("disagreements", Json.Int r.disagreements);
      ("transport", Json.Str r.transport);
      ("pipeline", Json.Int r.pipeline);
      ("p50_ms", Json.Float r.p50_ms);
      ("p95_ms", Json.Float r.p95_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("max_ms", Json.Float r.max_ms);
      ("wall_s", Json.Float r.wall_s);
      ("requests_per_s", Json.Float r.rps);
      ("shed_rate", Json.Float (float_of_int r.shed /. float_of_int r.sent));
    ]
