type listen = Conn.listen = Unix_sock of string | Tcp of int

type config = {
  listen : listen;
  jobs : int option;
  max_inflight : int;
  queue_capacity : int;
  batch_max : int;
  store_path : string option;
  snapshot_path : string option;
  fsync_every : int;
  max_transport : Wire.version;
  admission_min : int;
  admission_target_ms : float;
}

let default_config listen =
  {
    listen;
    jobs = None;
    max_inflight = 2;
    queue_capacity = 256;
    batch_max = 32;
    store_path = None;
    snapshot_path = None;
    fsync_every = 32;
    max_transport = Wire.V2;
    admission_min = 4;
    admission_target_ms = 250.;
  }

(* Waiters carry their own (mu, T): singleflight groups key on the
   family (T alone), so members may ask about different instances of
   the leader's family. *)
type waiter = {
  w_conn : Conn.t;
  w_id : Json.t;
  w_bin : bool;
  w_mu : int array;
  w_tmat : Intmat.t;
}

type job = {
  rid : int;
  env : Protocol.envelope;
  budget : Engine.Budget.t;
  jconn : Conn.t;
  enqueued_at : float;
  sf : (int * string) option;  (* singleflight (hash, key) of an analyze leader *)
}

type t = {
  cfg : config;
  pool : Engine.Pool.t;
  store_ : Store.t option;
  queue : job Admission.t;
  limiter : Limiter.t;
  mutable batcher : job Batcher.t option;
  draining : bool Atomic.t;
  aborting : bool Atomic.t;
  workers_done : bool Atomic.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  listen_fd : Unix.file_descr;
  bound_port : int option;
  sflight : waiter Singleflight.t;
  inflight : (int, Engine.Budget.t) Hashtbl.t;
  inflight_lock : Mutex.t;
  next_id : int Atomic.t;
  (* Per-server counts (the [Obs.Metrics] counters are process-wide,
     and the tests run several servers in one process). *)
  n_accepted : int Atomic.t;
  n_shed : int Atomic.t;
  n_batches : int Atomic.t;
  n_batched : int Atomic.t;
  n_fastpath : int Atomic.t;
  n_family_fastpath : int Atomic.t;
  n_binary : int Atomic.t;
  n_deadline_exceeded : int Atomic.t;
}

let m_accepted = Obs.Metrics.counter "server.accepted"
let m_shed = Obs.Metrics.counter "server.shed"
let m_batches = Obs.Metrics.counter "server.batches"
let m_batched = Obs.Metrics.counter "server.batched"
let m_conns = Obs.Metrics.counter "server.connections"
let m_fastpath = Obs.Metrics.counter "server.fastpath"
let m_family_fastpath = Obs.Metrics.counter "server.family_fastpath"
let m_coalesced = Obs.Metrics.counter "server.singleflight.coalesced"
let m_deadline_exceeded = Obs.Metrics.counter "server.deadline_exceeded"
let g_queue_depth = Obs.Metrics.gauge "server.queue_depth"
let h_request_ms = Obs.Metrics.histogram "server.request_ms"

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------- wakeup ------------------------------ *)

(* The self-pipe carries two byte values: ['d'] asks for a drain (the
   public, async-signal-safe {!wake}), ['w'] merely interrupts the
   poll so the loop re-reads shared state — workers send it after
   queueing output for a descriptor the loop is not yet watching for
   writability. *)
let wake t = try ignore (Unix.write t.pipe_w (Bytes.of_string "d") 0 1) with _ -> ()
let wake_loop t = try ignore (Unix.write t.pipe_w (Bytes.of_string "w") 0 1) with _ -> ()

let initiate_drain t =
  if not (Atomic.exchange t.draining true) then begin
    (* Already-running and already-queued requests finish fast: their
       budgets are cancelled, so analysis degrades to the bounded
       lattice path instead of completing at leisure or vanishing. *)
    locked t.inflight_lock (fun () ->
        Hashtbl.iter (fun _ b -> Engine.Budget.cancel b) t.inflight);
    Admission.close t.queue;
    wake t
  end

(* ------------------------------ replies ----------------------------- *)

(* Append one encoded message to the connection's output stream.  With
   [defer] the bytes are only queued — the event loop batches one
   flush per readiness event, so a pipelined burst of replies costs
   one [write] instead of one per reply.  Workers flush eagerly and
   wake the loop if the socket would block. *)
let send t conn ?(defer = false) make =
  if Conn.send ~flush:(not defer) conn make && not defer then wake_loop t

(* Every reply write consults the [conn.write] fault site first, as
   before the event-loop rewrite: a fired fault swallows the reply
   and shuts the connection down, so the peer observes EOF instead of
   silence and can retry promptly. *)
let send_reply t conn ?defer make =
  if Fault.should_fail "conn.write" then Conn.shutdown conn else send t conn ?defer make

let send_doc t conn ?defer json = send_reply t conn ?defer (Conn.doc json)

(* An analyze result fans out to each singleflight waiter in the
   waiter's own dialect ({!Conn.analyze_reply}). *)
let send_analyze t w ?defer result =
  send_reply t w.w_conn ?defer (Conn.analyze_reply ~id:w.w_id ~bin:w.w_bin result)

(* ------------------------------ batches ----------------------------- *)

let compatible a b =
  match (a.env.Protocol.req, b.env.Protocol.req) with
  | Protocol.Analyze _, Protocol.Analyze _ -> true
  | Protocol.Replay _, Protocol.Replay _ -> true
  | _ -> false

let unregister t rid =
  locked t.inflight_lock (fun () -> Hashtbl.remove t.inflight rid)

let serve_job t job =
  let op = Protocol.op_name job.env.Protocol.req in
  (* A fresh span stack per request: pool workers run in their own
     domain, so the request subtree is not entangled with the
     server's own spans. *)
  Obs.Trace.with_parent None (fun () ->
      Obs.Trace.with_span "server.request"
        ~args:[ ("op", op); ("rid", string_of_int job.rid) ]
        (fun () ->
          match (job.sf, job.env.Protocol.req) with
          | Some (hash, key), Protocol.Analyze { mu; tmat; _ } ->
            (* The group is keyed on the family (T alone): the leader
               computes its own instance once — populating the family
               cache as a side effect — then journals the family
               verdict and fans out.  Waiters on the same mu reuse the
               leader's result (and its single store append inside
               [analyze_wire]); waiters on other instances of the
               family re-enter [analyze_wire], which now replays the
               warm family in O(atoms). *)
            let result =
              match Handlers.analyze_wire ~store:t.store_ ~budget:job.budget ~mu tmat with
              | r -> Ok r
              | exception exn -> Error (Printexc.to_string exn)
            in
            (match result with
            | Ok _ ->
              Option.iter
                (fun s ->
                  try Store.add_family s tmat (Analysis.family tmat)
                  with Fault.Injected _ | Sys_error _ | Unix.Unix_error _ -> ())
                t.store_
            | Error _ -> ());
            let waiters = Singleflight.complete t.sflight ~hash ~key in
            List.iter
              (fun w ->
                match result with
                | Ok r ->
                  if w.w_mu = mu then send_analyze t w r
                  else (
                    match
                      Handlers.analyze_wire ~store:t.store_ ~budget:job.budget
                        ~mu:w.w_mu w.w_tmat
                    with
                    | r' -> send_analyze t w r'
                    | exception exn ->
                      send_doc t w.w_conn
                        (Protocol.error_reply ~id:w.w_id ~code:"internal"
                           ~detail:(Printexc.to_string exn)))
                | Error msg ->
                  send_doc t w.w_conn
                    (Protocol.error_reply ~id:w.w_id ~code:"internal" ~detail:msg))
              waiters
          | _ ->
            let reply =
              match
                Handlers.execute ~pool:t.pool ~store:t.store_ ~budget:job.budget
                  job.env.Protocol.req
              with
              | fields -> Protocol.ok_reply ~id:job.env.Protocol.id ~op fields
              | exception Handlers.Bad_request msg ->
                Protocol.error_reply ~id:job.env.Protocol.id ~code:"bad_request"
                  ~detail:msg
              | exception exn ->
                Protocol.error_reply ~id:job.env.Protocol.id ~code:"internal"
                  ~detail:(Printexc.to_string exn)
            in
            send_doc t job.jconn reply));
  unregister t job.rid;
  let latency_ms = 1000. *. (Unix.gettimeofday () -. job.enqueued_at) in
  (* Admission-to-completion latency feeds the AIMD loop: queue wait
     counts, so a backlog is itself the overload signal. *)
  Limiter.release t.limiter ~latency_ms;
  Obs.Metrics.observe h_request_ms latency_ms

(* SIGKILL-grade shutdown: refuse new work, cancel running budgets,
   discard everything still queued and (in the loop) slam connections
   without flushing queued replies.  Unlike [initiate_drain] nothing
   graceful happens — this is how the cluster chaos harness models a
   hard kill of an in-process shard (docs/CLUSTER.md). *)
let abort t =
  if not (Atomic.exchange t.aborting true) then begin
    Atomic.set t.draining true;
    locked t.inflight_lock (fun () ->
        Hashtbl.iter (fun _ b -> Engine.Budget.cancel b) t.inflight);
    let dropped = Admission.abort t.queue in
    List.iter
      (fun j ->
        unregister t j.rid;
        Limiter.release t.limiter ~latency_ms:0.)
      dropped;
    wake_loop t
  end

let handle_batch t batch =
  Atomic.incr t.n_batches;
  ignore (Atomic.fetch_and_add t.n_batched (List.length batch));
  Obs.Metrics.incr m_batches;
  Obs.Metrics.add m_batched (List.length batch);
  Obs.Metrics.set_gauge g_queue_depth (float_of_int (Admission.length t.queue));
  ignore (Engine.Pool.map t.pool (fun job -> serve_job t job) batch)

(* ------------------------------- stats ------------------------------ *)

let store t = t.store_
let worker_deaths t = match t.batcher with Some b -> Batcher.deaths b | None -> 0

let stats_fields t =
  let groups, coalesced = Singleflight.stats t.sflight in
  let base =
    [
      ("queue_depth", Json.Int (Admission.length t.queue));
      ("draining", Json.Bool (Atomic.get t.draining));
      ("accepted", Json.Int (Atomic.get t.n_accepted));
      ("shed", Json.Int (Atomic.get t.n_shed));
      ("deadline_exceeded", Json.Int (Atomic.get t.n_deadline_exceeded));
      ( "admission",
        Json.Obj
          [
            ("limit", Json.Int (Limiter.limit t.limiter));
            ("inflight", Json.Int (Limiter.inflight t.limiter));
            ("rejected", Json.Int (Limiter.rejected t.limiter));
            ("decreases", Json.Int (Limiter.decreases t.limiter));
          ] );
      ("batches", Json.Int (Atomic.get t.n_batches));
      ("batched", Json.Int (Atomic.get t.n_batched));
      ("fastpath", Json.Int (Atomic.get t.n_fastpath));
      ( "family",
        Json.Obj [ ("fastpath", Json.Int (Atomic.get t.n_family_fastpath)) ] );
      ( "singleflight",
        Json.Obj [ ("groups", Json.Int groups); ("coalesced", Json.Int coalesced) ] );
      ( "transport",
        Json.Obj
          [
            ("max", Json.Str (Wire.version_name t.cfg.max_transport));
            ("binary_negotiated", Json.Int (Atomic.get t.n_binary));
          ] );
      ("worker_deaths", Json.Int (worker_deaths t));
      ("jobs", Json.Int (Engine.Pool.jobs t.pool));
    ]
  in
  match t.store_ with
  | None -> base @ [ ("store", Json.Null) ]
  | Some s ->
    let st = Store.stats s in
    base
    @ [
        ( "store",
          Json.Obj
            [
              ("entries", Json.Int st.Store.entries);
              ("hits", Json.Int st.Store.hits);
              ("misses", Json.Int st.Store.misses);
              ("appended", Json.Int st.Store.appended);
              ("loaded", Json.Int st.Store.loaded);
              ("families", Json.Int st.Store.families);
              ("f_appended", Json.Int st.Store.f_appended);
              ("f_loaded", Json.Int st.Store.f_loaded);
              ("dropped_bytes", Json.Int st.Store.dropped_bytes);
              ("quarantined", Json.Int st.Store.quarantined);
              ("healed", Json.Int st.Store.healed);
              ("io_errors", Json.Int st.Store.io_errors);
              ("snap_entries", Json.Int st.Store.snap_entries);
              ("snap_hits", Json.Int st.Store.snap_hits);
              ("snap_corrupt", Json.Int st.Store.snap_corrupt);
              ("open_ms", Json.Float st.Store.open_ms);
              ("provenance", Json.Str st.Store.provenance);
            ] );
      ]

(* ----------------------------- dispatch ----------------------------- *)

(* Everything below runs on the single event-loop thread, so all fault
   consults — [daemon.accept], [conn.read], [conn.drop], [conn.write]
   for inline replies — stay totally ordered with the request stream,
   exactly as the per-connection reader threads ordered them before
   the rewrite (docs/RESILIENCE.md). *)

(* Loop-inline work gets its own span root per request: the event-loop
   thread's span stack is its own (per-thread stacks in [Obs.Trace]),
   and [with_parent None] roots the request subtree so fastpath spans
   are never children of whatever the loop happened to have open. *)
let with_loop_span ~path f =
  Obs.Trace.with_parent None (fun () ->
      Obs.Trace.with_span "server.request"
        ~args:[ ("op", "analyze"); ("path", path) ]
        f)

(* A draining server, or a budget spent before the request arrived
   (the router stamps the remaining budget on each forwarded frame),
   answers at once: no store lookup, no admission, no analysis. *)
let refused t conn ~id deadline_ms =
  if Atomic.get t.draining then begin
    send_doc t conn ~defer:true
      (Protocol.error_reply ~id ~code:"draining" ~detail:"server is draining");
    true
  end
  else if match deadline_ms with Some d -> d <= 0 | None -> false then begin
    Atomic.incr t.n_deadline_exceeded;
    Obs.Metrics.incr m_deadline_exceeded;
    send_doc t conn ~defer:true
      (Protocol.error_reply ~id ~code:"deadline_exceeded"
         ~detail:"request deadline already spent");
    true
  end
  else false

(* The one admission path for queued work.  The AIMD limiter gates
   queued compute only — ping/stats/drain/hello/ship are answered
   inline and can never shed behind analyze traffic — and the bounded
   queue comes after it.  [shed] answers a refusal with the
   [overloaded] detail. *)
let admit t conn env ~sf ~shed =
  let shed detail =
    Atomic.incr t.n_shed;
    Obs.Metrics.incr m_shed;
    shed detail
  in
  if not (Limiter.try_admit t.limiter) then
    shed (Printf.sprintf "admission limit reached (%d inflight)" (Limiter.limit t.limiter))
  else begin
    let rid = Atomic.fetch_and_add t.next_id 1 in
    let budget = Engine.Budget.make ?deadline_ms:(Protocol.deadline_ms env.Protocol.req) () in
    locked t.inflight_lock (fun () -> Hashtbl.replace t.inflight rid budget);
    let job = { rid; env; budget; jconn = conn; enqueued_at = Unix.gettimeofday (); sf } in
    if Admission.try_push t.queue job then begin
      Atomic.incr t.n_accepted;
      Obs.Metrics.incr m_accepted;
      Obs.Metrics.set_gauge g_queue_depth (float_of_int (Admission.length t.queue))
    end
    else begin
      unregister t rid;
      (* A full queue is itself an overload signal: release with an
         over-target latency so the limiter backs off. *)
      Limiter.release t.limiter ~latency_ms:Float.infinity;
      shed (Printf.sprintf "queue full (%d requests)" t.cfg.queue_capacity)
    end
  end

let handle_analyze t conn ~bin ~id ~mu ~tmat ~deadline_ms =
  if not (refused t conn ~id deadline_ms) then
    let w = { w_conn = conn; w_id = id; w_bin = bin; w_mu = mu; w_tmat = tmat } in
    match Option.bind t.store_ (fun s -> Store.find s ~mu tmat) with
    | Some e ->
      (* Warm fast path: a stored verdict is encoded straight from the
         event loop — no queue, no batcher, no pool handoff. *)
      with_loop_span ~path:"fastpath" (fun () ->
          Atomic.incr t.n_fastpath;
          Obs.Metrics.incr m_fastpath;
          send_analyze t ~defer:true w (Protocol.wire_of_entry e, "hit"))
    | None -> (
      let family_verdict =
        match t.store_ with
        | None -> None
        | Some s ->
          Option.bind (Store.find_family s tmat) (fun fam ->
              match Analysis.eval_family fam ~mu with
              | v -> Option.map (fun v -> (s, v)) v
              | exception Invalid_argument _ -> None)
      in
      match family_verdict with
      | Some (s, v) ->
        (* Family fast path: a journaled family verdict decides this
           instance in O(atoms) of its piecewise condition, still
           inline on the event loop.  The concrete entry it implies is
           appended so the next identical query is a plain hit; as in
           [Handlers.analyze_wire], a failed append degrades the
           status, never the verdict. *)
        with_loop_span ~path:"family" (fun () ->
            let e = Store.entry_of_verdict v in
            Atomic.incr t.n_family_fastpath;
            Obs.Metrics.incr m_family_fastpath;
            let status =
              match Store.add s ~mu tmat e with
              | () -> "family"
              | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) ->
                "error"
            in
            send_analyze t ~defer:true w (Protocol.wire_of_entry e, status))
      | None -> (
        (* Singleflight groups key on the family (T alone): one
           leader's symbolic analysis serves every coalesced
           instance. *)
        let hash = Store.family_hash tmat and key = Store.family_key_string tmat in
        match Singleflight.join t.sflight ~hash ~key w with
        | `Follower -> Obs.Metrics.incr m_coalesced
        | `Leader ->
          let env = { Protocol.id; req = Protocol.Analyze { mu; tmat; deadline_ms } } in
          admit t conn env ~sf:(Some (hash, key)) ~shed:(fun detail ->
              (* The whole group sheds: followers joined an admission
                 that never happened. *)
              List.iter
                (fun w ->
                  send_doc t w.w_conn ~defer:true
                    (Protocol.error_reply ~id:w.w_id ~code:"overloaded" ~detail))
                (Singleflight.complete t.sflight ~hash ~key))))

let handle_envelope t conn ~bin (env : Protocol.envelope) =
  let id = env.Protocol.id in
  let op = Protocol.op_name env.Protocol.req in
  match env.Protocol.req with
  | Protocol.Analyze { mu; tmat; deadline_ms } ->
    handle_analyze t conn ~bin ~id ~mu ~tmat ~deadline_ms
  | Protocol.Ship { seq; line } ->
    (* Answered inline like ping: applying a shipped record is one
       store call, and keeping it off the pool preserves ship-order
       per connection (the shipper pipelines on one session). *)
    let reply =
      if Atomic.get t.draining then
        Protocol.error_reply ~id ~code:"draining" ~detail:"server is draining"
      else
        match t.store_ with
        | None -> Protocol.error_reply ~id ~code:"bad_request" ~detail:"no store attached"
        | Some s -> (
          match Store.ingest_line s line with
          | Ok () -> Protocol.ok_reply ~id ~op [ ("watermark", Json.Int seq) ]
          | Error msg ->
            Protocol.error_reply ~id ~code:"bad_request"
              ~detail:("bad ship record: " ^ msg)
          | exception (Fault.Injected _ | Sys_error _ | Unix.Unix_error _) ->
            (* The record is not applied; an [internal] reply is not
               retried by sessions, so surface it as [overloaded] —
               the shipper re-ships from its watermark. *)
            Protocol.error_reply ~id ~code:"overloaded" ~detail:"ship append failed")
    in
    send_doc t conn ~defer:true reply
  | Protocol.Ping -> send_doc t conn ~defer:true (Protocol.ok_reply ~id ~op [])
  | Protocol.Stats ->
    send_doc t conn ~defer:true (Protocol.ok_reply ~id ~op (stats_fields t))
  | Protocol.Drain ->
    send_doc t conn ~defer:true (Protocol.ok_reply ~id ~op [ ("draining", Json.Bool true) ]);
    initiate_drain t
  | Protocol.Hello { transport } -> (
    match Conn.hello conn ~id ~max:t.cfg.max_transport transport with
    | Ok Wire.V2 -> Atomic.incr t.n_binary
    | Ok Wire.V1 -> ()
    | Error reply -> send_doc t conn ~defer:true reply)
  | Protocol.Search _ | Protocol.Simulate _ | Protocol.Replay _ ->
    if not (refused t conn ~id (Protocol.deadline_ms env.Protocol.req)) then
      admit t conn env ~sf:None ~shed:(fun detail ->
          send_doc t conn ~defer:true (Protocol.error_reply ~id ~code:"overloaded" ~detail))

(* ------------------------------ create ------------------------------ *)

let create cfg =
  (* Store before socket: an unusable store path must not leave a
     bound socket (or a just-unlinked stale one) behind. *)
  let store_ =
    Option.map
      (fun p -> Store.open_ ~fsync_every:cfg.fsync_every ?snapshot:cfg.snapshot_path p)
      cfg.store_path
  in
  let listen_fd =
    try Conn.bind cfg.listen
    with e ->
      Option.iter Store.close store_;
      raise e
  in
  let pipe_r, pipe_w = Unix.pipe () in
  let t =
    {
      cfg;
      pool = Engine.Pool.create ?jobs:cfg.jobs ();
      store_;
      queue = Admission.create ~capacity:cfg.queue_capacity;
      limiter =
        Limiter.create ~min_limit:cfg.admission_min
          ~target_ms:cfg.admission_target_ms ~max_limit:cfg.queue_capacity ();
      batcher = None;
      draining = Atomic.make false;
      aborting = Atomic.make false;
      workers_done = Atomic.make false;
      pipe_r;
      pipe_w;
      listen_fd;
      bound_port = Conn.bound_port listen_fd;
      sflight = Singleflight.create ();
      inflight = Hashtbl.create 64;
      inflight_lock = Mutex.create ();
      next_id = Atomic.make 0;
      n_accepted = Atomic.make 0;
      n_shed = Atomic.make 0;
      n_batches = Atomic.make 0;
      n_batched = Atomic.make 0;
      n_fastpath = Atomic.make 0;
      n_family_fastpath = Atomic.make 0;
      n_binary = Atomic.make 0;
      n_deadline_exceeded = Atomic.make 0;
    }
  in
  t.batcher <-
    Some
      (Batcher.start ~queue:t.queue ~workers:cfg.max_inflight ~batch_max:cfg.batch_max
         ~compatible ~handle:(handle_batch t));
  t

let port t = t.bound_port

(* -------------------------------- run ------------------------------- *)

let teardown fdmap conn =
  Hashtbl.remove fdmap (Conn.fd conn);
  Conn.close conn

(* Flush whatever the socket takes; a connection that stopped reading
   after a corrupt stream goes once its last reply is out. *)
let service_write fdmap conn =
  if (not (Conn.flush conn)) && Conn.closing conn then teardown fdmap conn

let service_read t fdmap conn chunk =
  match Conn.read conn chunk with
  | `Blocked -> ()
  | `Eof -> teardown fdmap conn
  | `Data ->
    (* Both connection-fault sites are consulted here, after a
       successful read, so the decisions are ordered with the peer's
       request stream — the peer sending these bytes proves it has
       consumed every earlier reply, so tearing down now can never
       race a reply still in flight.  [conn.read] models a transport
       reset while reading a request; [conn.drop] a hang-up between
       requests.  Either way the just-read bytes are discarded with
       the connection; the peer re-issues on a fresh one.
       [conn.slow] first: a gray failure stalls the whole event loop
       for the plan's delay — the slow-shard scenario the hedging and
       breaker machinery exists for — without failing anything
       (ambient, never logged per event). *)
    Fault.stall "conn.slow";
    if Fault.should_fail "conn.read" then teardown fdmap conn
    else if Fault.should_fail "conn.drop" then teardown fdmap conn
    else begin
      Conn.pull conn
        ~reject:(send_doc t conn ~defer:true)
        (fun ~bin env -> handle_envelope t conn ~bin env);
      (* One flush for the whole burst of inline replies. *)
      service_write fdmap conn
    end

let accept fdmap fd =
  (* An injected [daemon.accept] fault closes the freshly accepted
     connection before it is ever serviced — the peer sees an
     immediate EOF and reconnects. *)
  if Fault.should_fail "daemon.accept" then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    Obs.Metrics.incr m_conns;
    Hashtbl.replace fdmap fd (Conn.create fd)
  end

let run t =
  let chunk = Bytes.create 65536 in
  let pipe_buf = Bytes.create 256 in
  Unix.set_nonblock t.pipe_r;
  let fdmap : (Unix.file_descr, Conn.t) Hashtbl.t = Hashtbl.create 64 in
  let conns () = Hashtbl.fold (fun _ c acc -> c :: acc) fdmap [] in
  let drain_seen = ref false in
  let flush_deadline = ref infinity in
  let service_pipe () =
    match Unix.read t.pipe_r pipe_buf 0 (Bytes.length pipe_buf) with
    | 0 -> ()
    | n -> if Bytes.contains (Bytes.sub pipe_buf 0 n) 'd' then initiate_drain t
    | exception Unix.Unix_error _ -> ()
  in
  let abort_seen = ref false in
  let rec loop () =
    if Atomic.get t.aborting && not !abort_seen then begin
      abort_seen := true;
      if not !drain_seen then Conn.close_listener t.cfg.listen t.listen_fd;
      drain_seen := true;
      (* Slam every connection: queued replies are dropped unflushed,
         exactly as a killed process would drop them.  Workers still
         finishing a batch send into closed connections, which is a
         no-op. *)
      List.iter (teardown fdmap) (conns ());
      Atomic.set t.workers_done true;
      flush_deadline := neg_infinity
    end;
    let draining = Atomic.get t.draining in
    if draining && not !drain_seen then begin
      drain_seen := true;
      (* Stop accepting at once; a joiner thread turns the batcher
         join into a loop wake-up so replies queued by the last
         workers still flush through the poll loop below. *)
      Conn.close_listener t.cfg.listen t.listen_fd;
      ignore
        (Thread.create
           (fun () ->
             Option.iter Batcher.join t.batcher;
             Atomic.set t.workers_done true;
             wake_loop t)
           ())
    end;
    (* Tear down connections that finished flushing after a corrupt
       stream; collect the ones still alive. *)
    List.iter
      (fun c -> if Conn.closing c && not (Conn.pending c) then teardown fdmap c)
      (conns ());
    let live = conns () in
    let workers_done = Atomic.get t.workers_done in
    if workers_done && !flush_deadline = infinity then
      (* Bounded drain flush: a peer that never reads its replies must
         not wedge the shutdown. *)
      flush_deadline := Unix.gettimeofday () +. 5.0;
    let all_flushed = List.for_all (fun c -> not (Conn.pending c)) live in
    if !drain_seen && workers_done
       && (all_flushed || Unix.gettimeofday () > !flush_deadline)
    then ()
    else begin
      let interests =
        (if !drain_seen then []
         else [ (t.listen_fd, { Poll.want_read = true; want_write = false }) ])
        @ [ (t.pipe_r, { Poll.want_read = true; want_write = false }) ]
        @ List.filter_map
            (fun c ->
              let want_write = Conn.pending c in
              let want_read = not (Conn.closing c) in
              if want_read || want_write then
                Some (Conn.fd c, { Poll.want_read; want_write })
              else None)
            live
      in
      let timeout_ms = if !drain_seen then 50 else -1 in
      let events = Poll.wait interests ~timeout_ms in
      List.iter
        (fun (fd, (ev : Poll.event)) ->
          if fd = t.pipe_r then (if ev.Poll.ready_read then service_pipe ())
          else if (not !drain_seen) && fd = t.listen_fd then begin
            if ev.Poll.ready_read then Conn.accept_burst t.listen_fd (accept fdmap)
          end
          else
            match Hashtbl.find_opt fdmap fd with
            | None -> ()
            | Some conn ->
              if ev.Poll.ready_write then service_write fdmap conn;
              if (not (Conn.closed conn)) && (ev.Poll.ready_read || ev.Poll.ready_error) then
                if Conn.closing conn then (if ev.Poll.ready_error then teardown fdmap conn)
                else service_read t fdmap conn chunk)
        events;
      loop ()
    end
  in
  loop ();
  initiate_drain t;
  (* The drain path above already closed the listener and unlinked the
     socket; [initiate_drain] here only covers a [run] that never saw
     traffic.  Workers are done: every accepted request got its reply
     bytes queued, and the loop flushed them (or timed out on a peer
     that stopped reading). *)
  List.iter Conn.close (conns ());
  Option.iter Store.close t.store_;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
