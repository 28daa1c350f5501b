(* The cluster router (contract in router.mli, docs/CLUSTER.md).

   Two threads.  The event loop owns every socket — listener, clients,
   pooled upstream connections — on the daemon's connection code
   ({!Server.Conn}), and with them all per-request state: the pending
   tables, the hedge queues, the latency rings, the hedge token
   bucket.  The monitor runs beside it because probes, journal pumps
   and promotion catch-up block.  They share the fields marked "under
   [t.lock]" below, and nobody holds the lock across a blocking call;
   the monitor's breaker state ({!Health}) is single-writer and read
   lock-free.

   Every in-flight request is one [reqstate] shared by however many
   upstream copies exist: [r_done] is the first-wins latch and
   [r_outstanding] counts copies still parked, so a lost connection
   errors the client only when the last copy dies.  Hedgeable analyze
   requests queue per shard in send order, so the oldest one's due
   time is the loop's poll timeout.

   [route.forward] (class [cluster]) is consulted once per forwarded
   request, on the loop thread; hedge re-issues never consult it. *)

module Conn = Server.Conn
module Protocol = Server.Protocol
module Wire = Server.Wire

type shard_spec = {
  primary : Server.Client.addr;
  follower : Server.Client.addr option;
  journal : string option;
}

type hedge_policy = No_hedge | Fixed_ms of int | Adaptive

type config = {
  listen : Server.Daemon.listen;
  shards : shard_spec list;
  pool_size : int;
  shard_transport : Wire.version;
  max_transport : Wire.version;
  health_interval_ms : int;
  health_threshold : int;
  vnodes : int;
  hedge : hedge_policy;
  hedge_budget : int;
  latency_limit_ms : float;
}

let default_config listen shards =
  {
    listen;
    shards;
    pool_size = 2;
    shard_transport = Wire.V2;
    max_transport = Wire.V2;
    health_interval_ms = 1000;
    health_threshold = 3;
    vnodes = 64;
    hedge = Adaptive;
    hedge_budget = 64;
    latency_limit_ms = 500.;
  }

(* One forwarded request, shared by every upstream copy of it (the
   primary send plus any hedge).  Loop thread only. *)
type reqstate = {
  r_client : Conn.t;
  r_id : Json.t;
  r_bin : bool;  (* asked with an ['A'] frame *)
  r_req : Protocol.request;
  r_shard : shard;
  r_deadline : float;  (* absolute seconds; nan = no deadline *)
  r_sent_at : float;
  mutable r_done : bool;
  mutable r_outstanding : int;
}

and pending = { p_state : reqstate; p_hedge : bool }

(* A pooled upstream connection.  Loop thread only. *)
and uconn = {
  u : Conn.t;
  u_shard : shard;
  u_epoch : int;  (* the shard's epoch when it was opened *)
  u_pending : (int, pending) Hashtbl.t;
  mutable u_connecting : bool;  (* TCP connect still in progress *)
  mutable u_hello : bool;  (* the v2 hello ack has not arrived *)
}

and shard = {
  idx : int;
  spec : shard_spec;
  follower_sa : Unix.sockaddr option;
  health : Health.t;
  shipper : Shipper.t option;
  (* Under [t.lock]. *)
  mutable target : Server.Client.addr;
  mutable target_sa : Unix.sockaddr option;
  mutable alive : bool;
  mutable promoted : bool;
  mutable epoch : int;  (* bumped by promotion: older connections are failed *)
  mutable forwarded : int;
  mutable shed : int;
  mutable hedges : int;
  mutable hedge_wins : int;
  (* Written by the loop under [t.lock]; the loop reads them freely. *)
  mutable pool : uconn list;
  mutable f_pool : uconn list;  (* follower pool: hedges + breaker diverts *)
  (* Loop thread only. *)
  mutable next_conn : int;
  mutable f_next : int;
  lat : float array;  (* ring of recent first-reply latencies, ms *)
  mutable lat_n : int;
  hedgeq : reqstate Queue.t;  (* hedgeable requests, in send order *)
}

type t = {
  cfg : config;
  ring : Ring.t;
  shards : shard array;
  listen_fd : Unix.file_descr;
  bound_port : int option;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  stopping : bool Atomic.t;
  lock : Mutex.t;
  (* Under [lock]. *)
  mutable accepted : int;
  mutable promotions : int;
  (* Loop thread only. *)
  mutable clients : Conn.t list;
  mutable next_rid : int;
  mutable rr : int;  (* round-robin cursor for the stateless ops *)
  mutable h_tokens : float;  (* hedge token bucket *)
  mutable h_refill_at : float;
}

let m_forwarded = Obs.Metrics.counter "router.forwarded"
let m_shed = Obs.Metrics.counter "router.shed"
let m_promotions = Obs.Metrics.counter "router.promotions"
let m_hedges = Obs.Metrics.counter "cluster.hedges"
let m_hedge_wins = Obs.Metrics.counter "cluster.hedge_wins"
let g_breaker = Obs.Metrics.gauge "cluster.breaker_state"

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let hedging_active t = t.cfg.hedge <> No_hedge && t.cfg.hedge_budget > 0

let addr_string : Server.Client.addr -> string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* ------------------------------ create ----------------------------- *)

(* Shard addresses are resolved once, here, so the loop never waits on
   a name lookup.  A name that does not resolve makes the address
   unreachable, as a refused connect would. *)
let resolve addr =
  try Some (Server.Client.sockaddr addr) with Not_found | Unix.Unix_error _ -> None

let create (cfg : config) =
  if cfg.shards = [] then invalid_arg "Router.create: no shards";
  if cfg.pool_size < 1 then invalid_arg "Router.create: pool_size must be >= 1";
  let listen_fd = Conn.bind cfg.listen in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  let shards =
    Array.of_list
      (List.mapi
         (fun idx spec ->
           {
             idx;
             spec;
             follower_sa = Option.bind spec.follower resolve;
             health =
               Health.create ~threshold:cfg.health_threshold
                 ~latency_limit_ms:cfg.latency_limit_ms ();
             shipper =
               (match (spec.journal, spec.follower) with
               | Some journal, Some follower ->
                 Some (Shipper.create ~journal ~transport:Wire.V1 ~follower ())
               | _ -> None);
             target = spec.primary;
             target_sa = resolve spec.primary;
             alive = true;
             promoted = false;
             epoch = 0;
             forwarded = 0;
             shed = 0;
             hedges = 0;
             hedge_wins = 0;
             pool = [];
             f_pool = [];
             next_conn = 0;
             f_next = 0;
             lat = Array.make 64 0.;
             lat_n = 0;
             hedgeq = Queue.create ();
           })
         cfg.shards)
  in
  {
    cfg;
    ring = Ring.make ~vnodes:cfg.vnodes (Array.length shards);
    shards;
    listen_fd;
    bound_port = Conn.bound_port listen_fd;
    pipe_r;
    pipe_w;
    stopping = Atomic.make false;
    lock = Mutex.create ();
    accepted = 0;
    promotions = 0;
    clients = [];
    next_rid = 1;
    rr = 0;
    h_tokens = float_of_int (max 0 cfg.hedge_budget);
    h_refill_at = Unix.gettimeofday ();
  }

let ring t = t.ring
let port t = t.bound_port

(* ------------------------------ wakeup ----------------------------- *)

(* The self-pipe carries ['d'], a drain request (the async-signal-safe
   {!wake}), and ['w'], which only makes the loop re-read shared state:
   promotion sends it so the loop fails the promoted shard's old
   connections. *)
let wake t = try ignore (Unix.write t.pipe_w (Bytes.of_string "d") 0 1) with Unix.Unix_error _ -> ()
let wake_loop t = try ignore (Unix.write t.pipe_w (Bytes.of_string "w") 0 1) with Unix.Unix_error _ -> ()
let initiate_drain t = if not (Atomic.exchange t.stopping true) then wake t

(* ------------------------------ replies ---------------------------- *)

let reply_doc c doc = ignore (Conn.send c (Conn.doc doc))

let restamp id = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> if k = "id" then (k, id) else (k, v)) fields)
  | j -> j

let shed t shard c ~id detail =
  locked t.lock (fun () -> shard.shed <- shard.shed + 1);
  Obs.Metrics.incr m_shed;
  reply_doc c (Protocol.error_reply ~id ~code:"overloaded" ~detail)

let record_latency shard ms =
  shard.lat.(shard.lat_n mod Array.length shard.lat) <- ms;
  shard.lat_n <- shard.lat_n + 1

let hedge_delay_ms t shard =
  match t.cfg.hedge with
  | No_hedge -> infinity
  | Fixed_ms n -> float_of_int n
  | Adaptive ->
    let n = min shard.lat_n (Array.length shard.lat) in
    if n = 0 then 10.
    else begin
      let a = Array.sub shard.lat 0 n in
      Array.sort compare a;
      Float.max 1. (2. *. Server.Client.percentile a 0.99)
    end

(* --------------------------- upstream pool ------------------------- *)

(* Idempotent.  A parked request completes with a retriable
   [overloaded] only when the dying copy was its last outstanding one:
   a hedged request whose other copy is still parked elsewhere just
   loses a redundant leg. *)
let fail_uconn t uc =
  if not (Conn.closed uc.u) then begin
    Conn.close uc.u;
    let shard = uc.u_shard in
    locked t.lock (fun () ->
        shard.pool <- List.filter (fun x -> x != uc) shard.pool;
        shard.f_pool <- List.filter (fun x -> x != uc) shard.f_pool);
    Hashtbl.iter
      (fun _ p ->
        let r = p.p_state in
        r.r_outstanding <- r.r_outstanding - 1;
        if r.r_outstanding <= 0 && not r.r_done then begin
          r.r_done <- true;
          reply_doc r.r_client
            (Protocol.error_reply ~id:r.r_id ~code:"overloaded"
               ~detail:(Printf.sprintf "shard %d connection lost" shard.idx))
        end)
      uc.u_pending;
    Hashtbl.reset uc.u_pending
  end

(* Connections opened before the shard's last promotion. *)
let fail_stale t shard epoch =
  let fail uc = if uc.u_epoch <> epoch then fail_uconn t uc in
  List.iter fail shard.pool;
  List.iter fail shard.f_pool

(* A nonblocking connect: a Unix socket connects or fails at once, TCP
   completes when the socket turns writable.  On v2 the hello goes out
   first and requests follow it without waiting for the ack. *)
let open_uconn t shard ~follower ~epoch sa =
  match
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    match Unix.connect fd sa with
    | () -> (fd, false)
    | exception Unix.Unix_error (EINPROGRESS, _, _) -> (fd, true)
    | exception e ->
      Unix.close fd;
      raise e
  with
  | exception Unix.Unix_error _ -> None
  | fd, connecting ->
    let uc =
      {
        u = Conn.create fd;
        u_shard = shard;
        u_epoch = epoch;
        u_pending = Hashtbl.create 16;
        u_connecting = connecting;
        u_hello = t.cfg.shard_transport = Wire.V2;
      }
    in
    if uc.u_hello then Conn.upgrade uc.u Wire.V2;
    locked t.lock (fun () ->
        if follower then shard.f_pool <- uc :: shard.f_pool
        else shard.pool <- uc :: shard.pool);
    Some uc

(* The follower pool serves hedges and breaker diverts; both pools
   share the pending tables and the failure path. *)
let get_conn t shard ~follower =
  let sa, epoch =
    locked t.lock (fun () ->
        ( (if follower then shard.follower_sa
           else if shard.alive then shard.target_sa
           else None),
          shard.epoch ))
  in
  fail_stale t shard epoch;
  match sa with
  | None -> None
  | Some sa ->
    let live = if follower then shard.f_pool else shard.pool in
    let cursor = if follower then shard.f_next else shard.next_conn in
    if follower then shard.f_next <- cursor + 1 else shard.next_conn <- cursor + 1;
    let n = List.length live in
    if n >= t.cfg.pool_size then Some (List.nth live (cursor mod n))
    else open_uconn t shard ~follower ~epoch sa

(* [deadline_override], when given, replaces the request's stamped
   deadline with the remaining budget: a hedge never tells the follower
   it has the full original allowance.  An analyze goes through
   {!Conn.analyze_request}, as an ['A'] frame on v2 when the frame can
   carry it. *)
let send_upstream ?deadline_override uc ~rid (req : Protocol.request) =
  let dl orig = match deadline_override with Some _ -> deadline_override | None -> orig in
  let id = Json.Int rid in
  ignore
    (Conn.send uc.u (fun version ->
         match req with
         | Protocol.Analyze { mu; tmat; deadline_ms } ->
           Conn.analyze_request ~id:rid ?deadline_ms:(dl deadline_ms) ~mu tmat version
         | Protocol.Search { algorithm; mu; s; pareto; array_dim; deadline_ms } ->
           Conn.doc
             (Protocol.search ~id ?deadline_ms:(dl deadline_ms) ?s ~pareto ~array_dim
                ~algorithm ~mu ())
             version
         | Protocol.Simulate { algorithm; mu; s; pi } ->
           Conn.doc (Protocol.simulate ~id ?s ~algorithm ~mu ~pi ()) version
         | Protocol.Replay { instance } -> Conn.doc (Protocol.replay ~id instance) version
         | Protocol.Ship _ | Protocol.Ping | Protocol.Stats | Protocol.Drain | Protocol.Hello _ ->
           invalid_arg "Router.send_upstream: inline op"))

(* First reply wins; a losing copy is dropped here or when its
   connection dies. *)
let complete t uc rid encode =
  match Hashtbl.find_opt uc.u_pending rid with
  | None -> ()
  | Some p ->
    Hashtbl.remove uc.u_pending rid;
    let r = p.p_state in
    r.r_outstanding <- r.r_outstanding - 1;
    if not r.r_done then begin
      r.r_done <- true;
      ignore (Conn.send r.r_client (encode r));
      record_latency r.r_shard ((Unix.gettimeofday () -. r.r_sent_at) *. 1000.);
      if p.p_hedge then begin
        locked t.lock (fun () -> r.r_shard.hedge_wins <- r.r_shard.hedge_wins + 1);
        Obs.Metrics.incr m_hedge_wins
      end
    end

(* A ['V'] frame goes back re-encoded with the client's id (a ['V']
   frame again when the client asked with an ['A'] frame); a JSON reply
   goes back restamped. *)
let rec pull_replies t uc =
  if not (Conn.closed uc.u) then
    match Wire.next (Conn.decoder uc.u) with
    | Wire.Need_more -> ()
    | Wire.Frame (Wire.Bin_verdict { id; verdict; store }) ->
      complete t uc id (fun r -> Conn.analyze_reply ~id:r.r_id ~bin:r.r_bin (verdict, store));
      pull_replies t uc
    | Wire.Frame (Wire.Text line) -> (
      match Json.parse line with
      | Ok ack when uc.u_hello ->
        if Protocol.reply_ok ack then begin
          uc.u_hello <- false;
          Wire.set_version (Conn.decoder uc.u) Wire.V2;
          pull_replies t uc
        end
        else fail_uconn t uc
      | Ok reply ->
        (match Protocol.reply_id reply with
        | Json.Int rid -> complete t uc rid (fun r -> Conn.doc (restamp r.r_id reply))
        | _ -> ());
        pull_replies t uc
      | Error _ -> fail_uconn t uc)
    | Wire.Frame (Wire.Bin_analyze _) | Wire.Corrupt _ -> fail_uconn t uc

let service_upstream t uc chunk ~(ev : Server.Poll.event) =
  if uc.u_connecting then begin
    match Unix.getsockopt_error (Conn.fd uc.u) with
    | None -> uc.u_connecting <- false
    | Some _ -> fail_uconn t uc
  end
  else if ev.ready_read || ev.ready_error then
    match Conn.read uc.u chunk with
    | `Blocked -> ()
    | `Eof -> fail_uconn t uc
    | `Data -> pull_replies t uc

(* ----------------------------- forwarding -------------------------- *)

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let forward t c ~id ~bin shard req =
  if Fault.should_fail "route.forward" then shed t shard c ~id "fault injected: route.forward"
  else begin
    let is_analyze = match req with Protocol.Analyze _ -> true | _ -> false in
    let has_follower =
      shard.spec.follower <> None && not (locked t.lock (fun () -> shard.promoted))
    in
    (* Breaker open: the shard is up but slow — divert its analyze
       traffic to the follower (same bytes, deterministic verdicts)
       while the monitor probes it back in. *)
    let divert = is_analyze && has_follower && Health.state shard.health = Health.Open in
    let conn =
      if divert then
        match get_conn t shard ~follower:true with
        | Some uc -> Some uc
        | None -> get_conn t shard ~follower:false
      else get_conn t shard ~follower:false
    in
    match conn with
    | None -> shed t shard c ~id (Printf.sprintf "shard %d unavailable" shard.idx)
    | Some uc ->
      let rid = fresh_rid t in
      let now = Unix.gettimeofday () in
      let r =
        {
          r_client = c;
          r_id = id;
          r_bin = bin;
          r_req = req;
          r_shard = shard;
          r_deadline =
            (match Protocol.deadline_ms req with
            | Some d -> now +. (float_of_int d /. 1000.)
            | None -> Float.nan);
          r_sent_at = now;
          r_done = false;
          r_outstanding = 1;
        }
      in
      Hashtbl.replace uc.u_pending rid { p_state = r; p_hedge = false };
      send_upstream uc ~rid req;
      if is_analyze && has_follower && (not divert) && hedging_active t then
        Queue.push r shard.hedgeq;
      locked t.lock (fun () -> shard.forwarded <- shard.forwarded + 1);
      Obs.Metrics.incr m_forwarded
  end

(* Round-robin over live shards for the ops that carry no key; shards
   whose breaker is closed are preferred, so a gray shard only sees
   stateless traffic when every alternative is at least as sick. *)
let pick_rr t =
  let n = Array.length t.shards in
  let pick pred =
    let rec go tries =
      if tries = n then None
      else begin
        let s = t.shards.(t.rr mod n) in
        t.rr <- t.rr + 1;
        if pred s then Some s else go (tries + 1)
      end
    in
    go 0
  in
  locked t.lock (fun () ->
      match pick (fun s -> s.alive && Health.state s.health = Health.Closed) with
      | Some s -> Some s
      | None -> pick (fun s -> s.alive))

(* ------------------------------ hedging ---------------------------- *)

(* Token bucket: capacity [hedge_budget], refilling a full budget per
   second — a bound on sustained hedge rate, not a per-request gate. *)
let take_hedge_token t now =
  let cap = float_of_int t.cfg.hedge_budget in
  t.h_tokens <- Float.min cap (t.h_tokens +. (Float.max 0. (now -. t.h_refill_at) *. cap));
  t.h_refill_at <- now;
  if t.h_tokens >= 1. then begin
    t.h_tokens <- t.h_tokens -. 1.;
    true
  end
  else false

let hedge t r ~remaining =
  match get_conn t r.r_shard ~follower:true with
  | None -> () (* follower unreachable: the primary copy stands alone *)
  | Some uc ->
    let rid = fresh_rid t in
    r.r_outstanding <- r.r_outstanding + 1;
    Hashtbl.replace uc.u_pending rid { p_state = r; p_hedge = true };
    send_upstream ?deadline_override:remaining uc ~rid r.r_req;
    locked t.lock (fun () -> r.r_shard.hedges <- r.r_shard.hedges + 1);
    Obs.Metrics.incr m_hedges

(* Re-issue every hedge that has come due; returns the time the next
   one will (the loop's poll timeout).  A shard's queue is in send
   order and its delay is one number, so only the head can be due. *)
let hedge_tick t now =
  Array.fold_left
    (fun next shard ->
      let q = shard.hedgeq in
      if Queue.is_empty q then next
      else begin
        let delay_s = hedge_delay_ms t shard /. 1000. in
        let rec go () =
          match Queue.peek_opt q with
          | None -> next
          | Some r when r.r_done -> ignore (Queue.pop q); go ()
          | Some r ->
            let due = r.r_sent_at +. delay_s in
            let remaining =
              if Float.is_nan r.r_deadline then None
              else Some (int_of_float ((r.r_deadline -. now) *. 1000.))
            in
            if due > now then Float.min next due
            else if
              (match remaining with Some ms -> ms <= 0 | None -> false)
              || not (locked t.lock (fun () -> shard.alive && not shard.promoted))
            then begin
              ignore (Queue.pop q);
              go ()
            end
            else if take_hedge_token t now then begin
              ignore (Queue.pop q);
              hedge t r ~remaining;
              go ()
            end
            else
              (* Bucket empty: come back when the next token is in. *)
              Float.min next
                (now +. ((1. -. t.h_tokens) /. float_of_int t.cfg.hedge_budget))
        in
        go ()
      end)
    infinity t.shards

(* ---------------------------- promotion ---------------------------- *)

let promote_shard t idx =
  if idx < 0 || idx >= Array.length t.shards then
    invalid_arg "Router.promote_shard: no such shard";
  let shard = t.shards.(idx) in
  let already =
    locked t.lock (fun () ->
        if shard.promoted then true
        else begin
          shard.alive <- false;
          shard.epoch <- shard.epoch + 1;
          false
        end)
  in
  if already then locked t.lock (fun () -> shard.alive)
  else begin
    (* The loop fails the shard's old connections on this wake-up, so
       their parked requests complete with a retriable [overloaded]. *)
    wake_loop t;
    match shard.spec.follower with
    | None -> false (* no replica: the shard stays down *)
    | Some follower ->
      (* Catch the follower up from the primary's journal before any
         request is redirected: every record the dead primary acked
         (and drain-flushed) must be queryable on the follower first —
         the zero-lost-acked-writes half of the failover contract. *)
      Option.iter (fun sh -> ignore (Shipper.catch_up sh)) shard.shipper;
      locked t.lock (fun () ->
          shard.target <- follower;
          shard.target_sa <- shard.follower_sa;
          shard.promoted <- true;
          shard.alive <- true;
          t.promotions <- t.promotions + 1);
      Obs.Metrics.incr m_promotions;
      true
  end

(* ------------------------------ monitor ---------------------------- *)

let probe addr =
  match Server.Client.connect ~transport:Wire.V1 addr with
  | exception (Unix.Unix_error _ | Failure _ | Sys_error _ | Not_found) -> false
  | c ->
    let ok =
      match Server.Client.request c (Protocol.ping ()) with
      | reply -> Protocol.reply_ok reply
      | exception (Unix.Unix_error _ | Failure _ | Sys_error _) -> false
    in
    Server.Client.close c;
    ok

let monitor t =
  let interval = float_of_int t.cfg.health_interval_ms /. 1000. in
  let rec sleep left =
    if left > 0. && not (Atomic.get t.stopping) then begin
      let d = Float.min left 0.05 in
      Thread.delay d;
      sleep (left -. d)
    end
  in
  while not (Atomic.get t.stopping) do
    sleep interval;
    if not (Atomic.get t.stopping) then begin
      Array.iter
        (fun shard ->
          let target, alive, promoted =
            locked t.lock (fun () -> (shard.target, shard.alive, shard.promoted))
          in
          (match shard.shipper with
          | Some sh when not promoted -> ignore (Shipper.pump sh)
          | _ -> ());
          if alive && not promoted then begin
            let t0 = Unix.gettimeofday () in
            let ok = probe target in
            let latency_ms = (Unix.gettimeofday () -. t0) *. 1000. in
            match Health.note shard.health ~latency_ms ~ok () with
            | `Failed -> ignore (promote_shard t shard.idx)
            | `Opened ->
              ignore
                (Obs.Warn.once "router.breaker_open"
                   (Printf.sprintf "shard %d breaker opened (ewma %.1f ms)"
                      shard.idx (Health.ewma_ms shard.health)))
            | `Recovered | `Ok -> ()
          end)
        t.shards;
      let open_count =
        Array.fold_left
          (fun acc s -> if Health.state s.health <> Health.Closed then acc + 1 else acc)
          0 t.shards
      in
      Obs.Metrics.set_gauge g_breaker (float_of_int open_count)
    end
  done

(* ------------------------------- stats ----------------------------- *)

let stats_fields t =
  locked t.lock (fun () ->
      let shards =
        Array.to_list
          (Array.map
             (fun s ->
               Json.Obj
                 [
                   ("shard", Json.Int s.idx);
                   ("target", Json.Str (addr_string s.target));
                   ("alive", Json.Bool s.alive);
                   ("promoted", Json.Bool s.promoted);
                   ("pool", Json.Int (List.length s.pool));
                   ("follower_pool", Json.Int (List.length s.f_pool));
                   ("forwarded", Json.Int s.forwarded);
                   ("shed", Json.Int s.shed);
                   ("hedges", Json.Int s.hedges);
                   ("hedge_wins", Json.Int s.hedge_wins);
                   ("breaker", Json.Str (Health.state_name s.health));
                   ("ewma_ms", Json.Float (Health.ewma_ms s.health));
                   ("health_failures", Json.Int (Health.failures s.health));
                   ( "watermark",
                     Json.Int
                       (match s.shipper with Some sh -> Shipper.watermark sh | None -> 0) );
                 ])
             t.shards)
      in
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
      [
        ("role", Json.Str "router");
        ("shards", Json.Arr shards);
        ("vnodes", Json.Int t.cfg.vnodes);
        ("accepted", Json.Int t.accepted);
        ("promotions", Json.Int t.promotions);
        ("hedges", Json.Int (sum (fun s -> s.hedges)));
        ("hedge_wins", Json.Int (sum (fun s -> s.hedge_wins)));
        ("draining", Json.Bool (Atomic.get t.stopping));
        ("max_transport", Json.Str (Wire.version_name t.cfg.max_transport));
      ])

(* ----------------------------- requests ---------------------------- *)

let handle_request t c ~bin (env : Protocol.envelope) =
  let id = env.Protocol.id in
  match env.Protocol.req with
  | Protocol.Ping -> reply_doc c (Protocol.ok_reply ~id ~op:"ping" [])
  | Protocol.Stats -> reply_doc c (Protocol.ok_reply ~id ~op:"stats" (stats_fields t))
  | Protocol.Drain ->
    reply_doc c (Protocol.ok_reply ~id ~op:"drain" [ ("draining", Json.Bool true) ]);
    initiate_drain t
  | Protocol.Hello { transport } -> (
    match Conn.hello c ~id ~max:t.cfg.max_transport transport with
    | Ok _ -> ()
    | Error reply -> reply_doc c reply)
  | Protocol.Ship _ ->
    reply_doc c
      (Protocol.error_reply ~id ~code:"bad_request"
         ~detail:"ship is shard-direct; the router does not replicate")
  | Protocol.Analyze { tmat; _ } as req ->
    forward t c ~id ~bin t.shards.(Ring.shard_of t.ring (Server.Store.family_hash tmat)) req
  | (Protocol.Search _ | Protocol.Simulate _ | Protocol.Replay _) as req -> (
    match pick_rr t with
    | Some shard -> forward t c ~id ~bin shard req
    | None ->
      reply_doc c (Protocol.error_reply ~id ~code:"overloaded" ~detail:"no live shards"))

let close_client t c =
  Conn.close c;
  t.clients <- List.filter (fun x -> x != c) t.clients

let service_client t c chunk =
  match Conn.read c chunk with
  | `Blocked -> ()
  | `Eof -> close_client t c
  | `Data -> Conn.pull c ~reject:(reply_doc c) (handle_request t c)

(* ------------------------------- run ------------------------------- *)

type watched = Wakeup | Listener | Client of Conn.t | Upstream of uconn

let read_only = { Server.Poll.want_read = true; want_write = false }

(* Flush what the sockets take, then say what to wait for.  A client
   whose input turned corrupt goes once its last reply is out. *)
let watch_list t =
  let clients =
    List.filter_map
      (fun c ->
        let pending = Conn.flush c in
        if Conn.closing c && not pending then (close_client t c; None)
        else
          Some
            ( Client c,
              Conn.fd c,
              { Server.Poll.want_read = not (Conn.closing c); want_write = pending } ))
      t.clients
  in
  let upstream uc =
    ( Upstream uc,
      Conn.fd uc.u,
      if uc.u_connecting then { Server.Poll.want_read = false; want_write = true }
      else { Server.Poll.want_read = true; want_write = Conn.flush uc.u } )
  in
  ((Wakeup, t.pipe_r, read_only) :: (Listener, t.listen_fd, read_only) :: clients)
  @ List.concat_map (fun s -> List.map upstream (s.pool @ s.f_pool)) (Array.to_list t.shards)

let run t =
  let monitor_thread = Thread.create monitor t in
  let chunk = Bytes.create 65536 in
  let pipe_buf = Bytes.create 64 in
  let service (w, _, _) (ev : Server.Poll.event) =
    match w with
    | Wakeup -> (
      match Unix.read t.pipe_r pipe_buf 0 (Bytes.length pipe_buf) with
      | n ->
        (* A ['d'] IS a drain request: signal handlers may only write
           the pipe (same contract as the daemon's loop). *)
        if Bytes.contains (Bytes.sub pipe_buf 0 n) 'd' then Atomic.set t.stopping true;
        Array.iter (fun s -> fail_stale t s (locked t.lock (fun () -> s.epoch))) t.shards
      | exception Unix.Unix_error _ -> ())
    | Listener ->
      Conn.accept_burst t.listen_fd (fun fd ->
          t.clients <- Conn.create fd :: t.clients;
          locked t.lock (fun () -> t.accepted <- t.accepted + 1))
    | Client c ->
      if (not (Conn.closed c)) && (ev.ready_read || ev.ready_error) then
        if Conn.closing c then (if ev.ready_error then close_client t c)
        else service_client t c chunk
    | Upstream uc -> if not (Conn.closed uc.u) then service_upstream t uc chunk ~ev
  in
  (* [Poll.wait] reports ready descriptors in input order, so each
     event pairs with its entry by walking both lists once; a
     connection closed earlier in the same round is skipped above. *)
  let rec dispatch watched events =
    match (watched, events) with
    | [], _ | _, [] -> ()
    | ((_, fd, _) as w) :: ws, (efd, ev) :: es ->
      if fd = efd then begin
        service w ev;
        dispatch ws es
      end
      else dispatch ws events
  in
  while not (Atomic.get t.stopping) do
    let now = Unix.gettimeofday () in
    let due = if hedging_active t then hedge_tick t now else infinity in
    let watched = watch_list t in
    let timeout_ms =
      if due = infinity then -1 else max 0 (int_of_float (Float.ceil ((due -. now) *. 1000.)))
    in
    dispatch watched
      (Server.Poll.wait (List.map (fun (_, fd, i) -> (fd, i)) watched) ~timeout_ms)
  done;
  (* Drain: stop listening, hang up on clients after one last flush,
     stop the monitor, dismantle the upstream pools, push the final
     journal tail. *)
  Conn.close_listener t.cfg.listen t.listen_fd;
  List.iter
    (fun c ->
      ignore (Conn.flush c);
      Conn.close c)
    t.clients;
  t.clients <- [];
  Thread.join monitor_thread;
  Array.iter
    (fun shard ->
      List.iter (fail_uconn t) (shard.pool @ shard.f_pool);
      match shard.shipper with
      | Some sh ->
        if not (locked t.lock (fun () -> shard.promoted)) then ignore (Shipper.pump sh);
        Shipper.close sh
      | None -> ())
    t.shards;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
