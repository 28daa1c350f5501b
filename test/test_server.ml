(* Tests for the mapping-query service: store persistence and crash
   recovery, admission control, the wire protocol, and a live
   differential run replaying the regression corpus through a real
   daemon (cold store, warm store, and after a restart). *)

module Store = Server.Store
module Protocol = Server.Protocol
module Admission = Server.Admission
module Daemon = Server.Daemon
module Client = Server.Client
module Conn = Server.Conn
module Wire = Server.Wire

(* A path no file holds yet: a run that failed before its cleanup
   leaves its files behind, and a later process may get the same pid. *)
let fresh_path =
  let counter = ref 0 in
  let rec next suffix =
    incr counter;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sf-test-%d-%d%s" (Unix.getpid ()) !counter suffix)
    in
    if Sys.file_exists path then next suffix else path
  in
  next

let mu1 = [| 4; 4; 4 |]
let t1 = Intmat.of_ints [ [ 1; 1; -1 ]; [ 1; 4; 1 ] ]
let mu2 = [| 6; 6; 6; 6 |]
let t2 = Intmat.of_ints [ [ 1; 7; 1; 1 ]; [ 1; 7; 1; 0 ] ]

(* ------------------------------- store ------------------------------ *)

let test_store_roundtrip () =
  let path = fresh_path ".store" in
  let s = Store.open_ path in
  Alcotest.(check bool) "cold miss" true (Store.find s ~mu:mu1 t1 = None);
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  Alcotest.(check bool) "hit after add" true (Store.find s ~mu:mu1 t1 = Some e1);
  Store.close s;
  (* A fresh process sees everything. *)
  let s = Store.open_ path in
  let st = Store.stats s in
  Alcotest.(check int) "loaded" 2 st.Store.loaded;
  Alcotest.(check int) "nothing dropped" 0 st.Store.dropped_bytes;
  Alcotest.(check bool) "warm hit 1" true (Store.find s ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "warm hit 2" true (Store.find s ~mu:mu2 t2 = Some e2);
  (* Same mapping matrix, different bounds: a distinct key. *)
  Alcotest.(check bool) "distinct mu" true (Store.find s ~mu:[| 9; 9; 9 |] t1 = None);
  Store.close s;
  Sys.remove path

let test_store_crash_recovery () =
  let path = fresh_path ".store" in
  let s = Store.open_ path in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  Store.close s;
  (* Tear the last record mid-line, as a crash between [write] and
     the terminating newline would. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Unix.truncate path (String.length full - 7);
  let s = Store.open_ path in
  let st = Store.stats s in
  Alcotest.(check int) "one record survives" 1 st.Store.loaded;
  Alcotest.(check bool) "torn tail dropped" true (st.Store.dropped_bytes > 0);
  Alcotest.(check bool) "survivor readable" true (Store.find s ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "torn record gone" true (Store.find s ~mu:mu2 t2 = None);
  (* The journal is whole again: appends after recovery persist. *)
  Store.add s ~mu:mu2 t2 e2;
  Store.close s;
  let s = Store.open_ path in
  Alcotest.(check int) "re-added persists" 2 (Store.stats s).Store.loaded;
  Alcotest.(check int) "clean reopen" 0 (Store.stats s).Store.dropped_bytes;
  Store.close s;
  Sys.remove path

let test_store_corrupt_record () =
  let path = fresh_path ".store" in
  let quarantine = path ^ ".quarantine" in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  let s = Store.open_ path in
  Store.add s ~mu:mu1 t1 e1;
  Store.add s ~mu:mu2 t2 e2;
  Store.close s;
  (* Flip a byte inside the first record: the checksum rejects it, the
     record is quarantined into the sidecar, and the independently
     checksummed record after it survives the compaction. *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  let header_end = String.index full '\n' + 1 in
  let b = Bytes.of_string full in
  Bytes.set b (header_end + 3) 'Z';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  let s = Store.open_ path in
  let st = Store.stats s in
  Alcotest.(check int) "later record survives" 1 st.Store.loaded;
  Alcotest.(check int) "corrupt record quarantined" 1 st.Store.quarantined;
  Alcotest.(check bool) "sidecar written" true (Sys.file_exists quarantine);
  Alcotest.(check bool) "survivor readable" true (Store.find s ~mu:mu2 t2 = Some e2);
  (* The quarantined key forces a miss until a fresh verdict
     re-verifies it... *)
  Alcotest.(check bool) "quarantined key misses" true (Store.find s ~mu:mu1 t1 = None);
  Store.add s ~mu:mu1 t1 e1;
  Alcotest.(check int) "re-add heals" 1 (Store.stats s).Store.healed;
  Alcotest.(check bool) "healed key hits" true (Store.find s ~mu:mu1 t1 = Some e1);
  Store.close s;
  (* ...and the healed journal replays clean: both records, no
     quarantine, no torn tail. *)
  let s = Store.open_ path in
  let st = Store.stats s in
  Alcotest.(check int) "healed journal replays whole" 2 st.Store.loaded;
  Alcotest.(check int) "no quarantine after heal" 0 st.Store.quarantined;
  Alcotest.(check int) "no torn tail" 0 st.Store.dropped_bytes;
  Store.close s;
  Sys.remove path;
  Sys.remove quarantine

let test_store_foreign_file () =
  let path = fresh_path ".store" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not a journal\n");
  Alcotest.(check bool) "refuses foreign file" true
    (try
       ignore (Store.open_ path);
       false
     with Failure _ -> true);
  Sys.remove path

(* The hashes records are journaled, indexed and placed under, on the
   paper's matmul (Pi° and Lee-Kedem Pi') and transitive-closure
   mappings at mu = 4: changing any of them orphans every store and
   moves keys between shards. *)
let test_store_hashes_pinned () =
  let ring3 = Cluster.Ring.make 3 and ring5 = Cluster.Ring.make ~vnodes:16 5 in
  List.iter
    (fun (name, t, key_hash, family_hash, on3, on5) ->
      let kh = Store.key_hash ~mu:mu1 t and fh = Store.family_hash t in
      Alcotest.(check int) (name ^ " key_hash") key_hash kh;
      Alcotest.(check int) (name ^ " family_hash") family_hash fh;
      Alcotest.(check (pair int int)) (name ^ " shards of 3") on3
        (Cluster.Ring.shard_of ring3 kh, Cluster.Ring.shard_of ring3 fh);
      Alcotest.(check (pair int int)) (name ^ " shards of 5") on5
        (Cluster.Ring.shard_of ring5 kh, Cluster.Ring.shard_of ring5 fh))
    [ ("matmul", Intmat.append_row Matmul.paper_s (Matmul.optimal_pi ~mu:4),
       0xb83cf817, 0x8719c39f, (0, 0), (0, 0));
      ("matmul-lk", Intmat.append_row Matmul.paper_s (Matmul.lee_kedem_pi ~mu:4),
       0xc1def190, 0x03d9a39e, (2, 1), (0, 1));
      ("tc", Intmat.append_row Transitive_closure.paper_s (Transitive_closure.optimal_pi ~mu:4),
       0x2b534782, 0x16f0d9d8, (1, 1), (1, 1)) ]

(* [persisted/] holds a store written by an earlier build: a daemon
   answered [Check.Gen.ith ~seed:7 ~size:4 i] for i < 24, the journal
   was compacted into [store.snap], and a second daemon on that
   snapshot answered seed 8, i < 16, into the journal tail.  Every
   verdict and family record must still be found, and agree with a
   fresh analysis. *)
let test_store_opens_persisted () =
  let copy src =
    let dst = fresh_path ("-" ^ Filename.basename src) in
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc (In_channel.with_open_bin src In_channel.input_all));
    dst
  in
  let journal = copy "persisted/store.journal" and snapshot = copy "persisted/store.snap" in
  let s = Store.open_ ~snapshot journal in
  let st = Store.stats s in
  Alcotest.(check string) "provenance" "snapshot+tail" st.Store.provenance;
  Alcotest.(check int) "snapshot records" 48 st.Store.snap_entries;
  Alcotest.(check (pair int int)) "tail records" (16, 16) (st.Store.loaded, st.Store.f_loaded);
  List.iter
    (fun (seed, count) ->
      for i = 0 to count - 1 do
        let inst = Check.Gen.ith ~seed ~size:4 i in
        let mu = inst.Check.Instance.mu and t = inst.Check.Instance.tmat in
        let where = Printf.sprintf "seed %d #%d" seed i in
        Alcotest.(check bool) (where ^ " verdict") true
          (Store.find s ~mu t = Some (Store.entry_of_verdict (Analysis.check ~mu t)));
        Alcotest.(check (option string)) (where ^ " family")
          (Some (Family.to_string (Family.build t)))
          (Option.map Family.to_string (Store.find_family s t))
      done)
    [ (7, 24); (8, 16) ];
  Alcotest.(check int) "no corrupt snapshot entries" 0 (Store.stats s).Store.snap_corrupt;
  Store.close s;
  List.iter Sys.remove [ journal; snapshot ]

(* ----------------------------- admission ---------------------------- *)

let test_admission_shedding () =
  let q = Admission.create () in
  Alcotest.(check bool) "push 1" true (Admission.try_push q 1);
  Alcotest.(check bool) "push 2" true (Admission.try_push q 2);
  Alcotest.(check int) "depth" 2 (Admission.length q);
  Admission.close q;
  Alcotest.(check bool) "push after close shed" false (Admission.try_push q 4);
  (* Queued items still drain after close... *)
  let first = Admission.pop q in
  let second = Admission.pop q in
  Alcotest.(check (list (option int))) "drain" [ Some 1; Some 2 ] [ first; second ];
  (* ...then consumers get the end-of-queue signal. *)
  Alcotest.(check (option int)) "closed" None (Admission.pop q)

(* ----------------------------- protocol ----------------------------- *)

(* Requests decode through [Conn.request_of_frame], the path both
   event loops take. *)
let decode_line line = Conn.request_of_frame (Wire.Text line)

let test_protocol_roundtrip () =
  let check_roundtrip name json expect_op =
    match decode_line (Json.to_string json) with
    | Ok (env, _) -> Alcotest.(check string) name expect_op (Protocol.op_name env.Protocol.req)
    | Error e -> Alcotest.failf "%s rejected: %s" name (Json.to_string e)
  in
  check_roundtrip "analyze" (Protocol.analyze ~id:(Json.Int 1) ~mu:mu1 t1) "analyze";
  check_roundtrip "analyze w/ deadline"
    (Protocol.analyze ~deadline_ms:50 ~mu:mu1 t1)
    "analyze";
  check_roundtrip "search"
    (Protocol.search ~algorithm:"matmul" ~mu:3 ~pareto:true ~array_dim:1 ())
    "search";
  check_roundtrip "simulate"
    (Protocol.simulate ~algorithm:"matmul" ~mu:2 ~pi:(Intvec.of_ints [ 1; 1; 1 ]) ())
    "simulate";
  check_roundtrip "replay"
    (Protocol.replay (Check.Instance.make ~mu:mu1 t1))
    "replay";
  check_roundtrip "ping" (Protocol.ping ~id:(Json.Str "x") ()) "ping";
  check_roundtrip "stats" (Protocol.stats_request ()) "stats";
  check_roundtrip "drain" (Protocol.drain ()) "drain"

let test_protocol_rejects () =
  let rejected line =
    match decode_line line with Ok _ -> None | Error reply -> Protocol.error_code reply
  in
  let parse_error = Some "parse_error" and bad_request = Some "bad_request" in
  Alcotest.(check (option string)) "not json" parse_error (rejected "nope");
  Alcotest.(check (option string)) "not an object" bad_request (rejected "[1,2]");
  Alcotest.(check (option string)) "missing op" bad_request (rejected {|{"id":1}|});
  Alcotest.(check (option string)) "unknown op" bad_request (rejected {|{"op":"frobnicate"}|});
  Alcotest.(check (option string)) "mu arity mismatch" bad_request
    (rejected {|{"op":"analyze","t":[[1,1,-1]],"mu":[4,4]}|});
  Alcotest.(check (option string)) "mu below 1" bad_request
    (rejected {|{"op":"analyze","t":[[1,1,-1]],"mu":[4,0,4]}|});
  Alcotest.(check (option string)) "ragged matrix" bad_request
    (rejected {|{"op":"analyze","t":[[1,1],[1]],"mu":[4,4]}|})

let test_protocol_id_echo () =
  match decode_line {|{"op":"ping","id":{"seq":7}}|} with
  | Ok (env, _) ->
    let reply = Protocol.ok_reply ~id:env.Protocol.id ~op:"ping" [] in
    Alcotest.(check string) "structured id echoed"
      {|{"id":{"seq":7},"ok":true,"op":"ping"}|}
      (Json.to_string reply);
    Alcotest.(check bool) "reply_ok" true (Protocol.reply_ok reply)
  | Error e -> Alcotest.failf "ping with structured id rejected: %s" (Json.to_string e)

(* ----------------------------- live server -------------------------- *)

let boot ?store_path () =
  let sock = fresh_path ".sock" in
  let cfg =
    {
      (Daemon.default_config (Daemon.Unix_sock sock)) with
      jobs = Some 2;
      store_path;
    }
  in
  let d = Daemon.create cfg in
  let th = Thread.create Daemon.run d in
  (d, th, sock)

let shutdown (d, th, _sock) =
  Daemon.initiate_drain d;
  Thread.join th

let direct_verdict (inst : Check.Instance.t) =
  Json.to_string
    (Protocol.json_of_wire
       (Protocol.wire_of_verdict
          (Analysis.check ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)))

let analyze_via conn (inst : Check.Instance.t) =
  let reply =
    Client.request conn
      (Protocol.analyze ~id:(Json.Int 0) ~mu:inst.Check.Instance.mu
         inst.Check.Instance.tmat)
  in
  Alcotest.(check bool) "reply ok" true (Protocol.reply_ok reply);
  let verdict =
    match Json.member "verdict" reply with
    | Some v -> Json.to_string v
    | None -> Alcotest.fail "analyze reply without verdict"
  in
  let status =
    match Json.member "store" reply with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.fail "analyze reply without store status"
  in
  (verdict, status)

let test_live_corpus_differential () =
  let corpus = Check.Corpus.load_dir "corpus" in
  Alcotest.(check bool) "corpus present" true (corpus <> []);
  let store_path = fresh_path ".store" in
  let server = boot ~store_path () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  (* Cold pass: every verdict is computed, persisted, and must render
     byte-identically to a direct local Analysis.check. *)
  List.iter
    (fun (name, inst) ->
      let verdict, status = analyze_via conn inst in
      Alcotest.(check string) ("cold " ^ name) (direct_verdict inst) verdict;
      Alcotest.(check string) ("cold status " ^ name) "miss" status)
    corpus;
  (* Warm pass on the same server: served from the store, same bytes. *)
  List.iter
    (fun (name, inst) ->
      let verdict, status = analyze_via conn inst in
      Alcotest.(check string) ("warm " ^ name) (direct_verdict inst) verdict;
      Alcotest.(check string) ("warm status " ^ name) "hit" status)
    corpus;
  Client.close conn;
  shutdown server;
  (* Restart on the same journal: the store survives the round trip
     and the warm hits keep their bytes. *)
  let server = boot ~store_path () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  List.iter
    (fun (name, inst) ->
      let verdict, status = analyze_via conn inst in
      Alcotest.(check string) ("post-restart " ^ name) (direct_verdict inst) verdict;
      Alcotest.(check string) ("post-restart status " ^ name) "hit" status)
    corpus;
  let stats = Client.request conn (Protocol.stats_request ~id:(Json.Int 1) ()) in
  (match Json.member "store" stats with
  | Some store -> (
    match (Json.member "loaded" store, Json.member "hits" store) with
    | Some (Json.Int loaded), Some (Json.Int hits) ->
      Alcotest.(check bool) "journal replayed at boot" true (loaded > 0);
      Alcotest.(check bool) "post-restart hit rate > 0" true (hits > 0)
    | _ -> Alcotest.fail "stats reply without store.loaded/store.hits")
  | None -> Alcotest.fail "stats reply without store");
  Client.close conn;
  shutdown server;
  Sys.remove store_path

let test_live_replay_op () =
  let corpus = Check.Corpus.load_dir "corpus" in
  let server = boot () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  List.iter
    (fun (name, inst) ->
      let reply = Client.request conn (Protocol.replay ~id:(Json.Str name) inst) in
      Alcotest.(check bool) (name ^ " ok") true (Protocol.reply_ok reply);
      match Json.member "agree" reply with
      | Some (Json.Bool agree) ->
        Alcotest.(check bool) (name ^ " fast path agrees with oracle") true agree
      | Some Json.Null -> () (* index set too large for the oracle *)
      | _ -> Alcotest.fail "replay reply without agree")
    corpus;
  Client.close conn;
  shutdown server

let test_live_bad_requests () =
  let server = boot () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  let reply = Client.request conn (Json.Str "not an object") in
  Alcotest.(check bool) "rejected" false (Protocol.reply_ok reply);
  Alcotest.(check (option string)) "bad_request" (Some "bad_request")
    (Protocol.error_code reply);
  let reply =
    Client.request conn
      (Json.Obj [ ("op", Json.Str "search"); ("algorithm", Json.Str "nope"); ("mu", Json.Int 2) ])
  in
  Alcotest.(check (option string)) "unknown algorithm is bad_request" (Some "bad_request")
    (Protocol.error_code reply);
  (* Unknown-algorithm failures must not poison the connection. *)
  let reply = Client.request conn (Protocol.ping ~id:(Json.Int 9) ()) in
  Alcotest.(check bool) "still serving" true (Protocol.reply_ok reply);
  Client.close conn;
  shutdown server

let test_live_simulate_bounded () =
  (* Pi = (10^12, 1, 1) on 27 points: its counting sort would span
     2 * 10^12 cycles, so the daemon refuses it and keeps serving. *)
  let server = boot () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  let simulate pi =
    Client.request conn (Protocol.simulate ~id:(Json.Int 1) ~algorithm:"matmul" ~mu:2 ~pi:(Intvec.of_ints pi) ())
  in
  let reply = simulate [ 1_000_000_000_000; 1; 1 ] in
  Alcotest.(check (option string)) "oversized simulate is bad_request" (Some "bad_request")
    (Protocol.error_code reply);
  Alcotest.(check (option string)) "a Pi of the wrong length is bad_request" (Some "bad_request")
    (Protocol.error_code (simulate [ 1; 1 ]));
  let reply = Client.request conn (Protocol.ping ~id:(Json.Int 2) ()) in
  Alcotest.(check bool) "still serving" true (Protocol.reply_ok reply);
  let reply = simulate [ 1; 2; 1 ] in
  Alcotest.(check bool) "a small simulate still runs" true (Protocol.reply_ok reply);
  Client.close conn;
  shutdown server

(* The candidate counts behind the search bound: matmul at mu 60 and
   bit-level matmul at mu 5 stay under 2^23, bit-level matmul at mu 6
   and matmul at mu 200 go past it, and a mu past the cap alone is
   refused before its objective bound is formed. *)
let test_search_candidates () =
  let count name mu =
    let alg, _ = Server.Handlers.builtin_algorithm name mu in
    Server.Handlers.search_candidates (Index_set.bounds alg.Algorithm.index_set)
  in
  let over = Server.Handlers.max_search_candidates + 1 in
  Alcotest.(check int) "matmul mu 8" 27_775 (count "matmul" 8);
  Alcotest.(check int) "matmul mu 60" 8_238_783 (count "matmul" 60);
  Alcotest.(check int) "bitmm mu 5" 7_095_093 (count "bitmm" 5);
  Alcotest.(check int) "bitmm mu 6" over (count "bitmm" 6);
  Alcotest.(check int) "matmul mu 200" over (count "matmul" 200);
  Alcotest.(check int) "one wide axis" over (Server.Handlers.search_candidates [| 1; 1 lsl 40 |])

let test_live_search_bounded () =
  (* matmul at mu 200 has 293,070,463 candidates: the daemon refuses
     the search at once and keeps serving. *)
  let server = boot () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  let search mu = Client.request conn (Protocol.search ~id:(Json.Int mu) ~algorithm:"matmul" ~mu ()) in
  let t0 = Unix.gettimeofday () in
  let reply = search 200 in
  Alcotest.(check (option string)) "oversized search is bad_request" (Some "bad_request")
    (Protocol.error_code reply);
  Alcotest.(check bool) "refused at once" true (Unix.gettimeofday () -. t0 < 1.);
  let reply = Client.request conn (Protocol.ping ~id:(Json.Int 2) ()) in
  Alcotest.(check bool) "still serving" true (Protocol.reply_ok reply);
  Alcotest.(check bool) "a small search still runs" true (Protocol.reply_ok (search 4));
  Client.close conn;
  shutdown server

let test_reactor_spans () =
  (* A traced daemon through one ping and one analyze: the reactor
     opens a span for each of its phases, and the cold analyze still
     runs under its own [server.request]. *)
  Obs.Trace.enable ();
  let names =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        let server = boot () in
        let _, _, sock = server in
        let conn = Client.connect (`Unix sock) in
        Alcotest.(check bool) "ping ok" true
          (Protocol.reply_ok (Client.request conn (Protocol.ping ~id:(Json.Int 1) ())));
        Alcotest.(check bool) "analyze ok" true
          (Protocol.reply_ok (Client.request conn (Protocol.analyze ~id:(Json.Int 2) ~mu:mu1 t1)));
        Client.close conn;
        shutdown server;
        List.map (fun sp -> sp.Obs.Trace.name) (Obs.Trace.spans ()))
  in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " opened") true (List.mem name names))
    [ "reactor.wait"; "reactor.read"; "reactor.dispatch"; "reactor.flush"; "server.request" ]

let test_cold_work_off_loop () =
  (* A traced daemon with a store computes a cold analyze on a worker
     domain and answers its repeat from the store on the event loop's
     domain. *)
  Obs.Trace.enable ();
  let spans =
    Fun.protect ~finally:Obs.Trace.disable (fun () ->
        let store_path = fresh_path ".store" in
        let server = boot ~store_path () in
        let _, _, sock = server in
        let conn = Client.connect (`Unix sock) in
        List.iter
          (fun (id, status) ->
            let reply = Client.request conn (Protocol.analyze ~id:(Json.Int id) ~mu:mu1 t1) in
            Alcotest.(check (option string)) ("store " ^ status) (Some status)
              (match Json.member "store" reply with Some (Json.Str s) -> Some s | _ -> None))
          [ (1, "miss"); (2, "hit") ];
        Client.close conn;
        shutdown server;
        Sys.remove store_path;
        Obs.Trace.spans ())
  in
  let domain_of what pick =
    match
      List.find_opt
        (fun sp -> sp.Obs.Trace.name = "server.request" && pick sp.Obs.Trace.args)
        spans
    with
    | Some sp -> sp.Obs.Trace.domain
    | None -> Alcotest.failf "no server.request span %s" what
  in
  let cold = domain_of "with a rid" (List.mem_assoc "rid") in
  let loop = domain_of "on the fastpath" (fun a -> List.assoc_opt "path" a = Some "fastpath") in
  Alcotest.(check bool)
    (Printf.sprintf "cold work on domain %d, off the loop's domain %d" cold loop)
    true (cold <> loop)

let test_live_drain_rejects () =
  let server = boot () in
  let d, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  let reply = Client.request conn (Protocol.drain ~id:(Json.Int 1) ()) in
  Alcotest.(check bool) "drain acknowledged" true (Protocol.reply_ok reply);
  (* After the ack the drain runs concurrently, so the follow-up is
     refused one of two ways: an explicit "draining" reply if the
     connection thread is still reading, or a closed socket if the
     shutdown won the race.  Only a successful verdict would be a
     bug. *)
  (match Client.request conn (Protocol.analyze ~id:(Json.Int 2) ~mu:mu1 t1) with
  | reply ->
    Alcotest.(check (option string)) "queued work refused while draining"
      (Some "draining") (Protocol.error_code reply)
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> ()
  | exception Failure _ -> ());
  ignore (Daemon.stats_fields d);
  Client.close conn;
  shutdown server

let test_live_load_verified () =
  (* A small version of the CI smoke run: concurrent verified load,
     zero disagreements, zero unexplained sheds. *)
  let server = boot ~store_path:(fresh_path ".store") () in
  let _, _, sock = server in
  let r =
    Client.load (`Unix sock)
      { Client.default_load with requests = 200; concurrency = 4; distinct = 16 }
  in
  Alcotest.(check int) "no disagreements" 0 r.Client.disagreements;
  Alcotest.(check int) "no transport errors" 0 r.Client.errors;
  Alcotest.(check int) "no sheds at default capacity" 0 r.Client.shed;
  Alcotest.(check int) "all replies ok" 200 r.Client.ok;
  shutdown server

let test_load_unreachable_address () =
  (* Every connection opens before the first request: one address with
     no listener fails the whole run at once, on either transport,
     however the connections would have been scheduled. *)
  let server = boot () in
  let _, _, sock = server in
  List.iter
    (fun transport ->
      let t0 = Unix.gettimeofday () in
      let r =
        Client.load_any
          [ `Unix sock; `Unix (fresh_path ".sock") ]
          { Client.default_load with requests = 100; concurrency = 4; transport }
      in
      let name = Wire.version_name transport in
      Alcotest.(check bool) (name ^ ": returns promptly") true
        (Unix.gettimeofday () -. t0 < 5.);
      Alcotest.(check int) (name ^ ": nothing ok") 0 r.Client.ok;
      Alcotest.(check int) (name ^ ": every request an error") 100 r.Client.errors)
    [ Wire.V1; Wire.V2 ];
  shutdown server

(* --------------------------- fault injection ------------------------ *)

(* Every test that arms a plan must disarm it on all paths, or the
   fault would leak into unrelated tests. *)
let with_plan plan f = Fault.Plan.arm plan; Fun.protect ~finally:Fault.Plan.disarm f

let test_fault_plan_determinism () =
  let decisions plan =
    with_plan plan (fun () ->
        List.init 200 (fun _ -> Fault.should_fail "store.write"))
  in
  let p1 = Fault.Plan.make ~rate:0.5 ~seed:17 ~classes:[ "io" ] () in
  let p2 = Fault.Plan.make ~rate:0.5 ~seed:17 ~classes:[ "io" ] () in
  let d1 = decisions p1 and d2 = decisions p2 in
  Alcotest.(check (list bool)) "same seed, same decisions" d1 d2;
  Alcotest.(check string) "same seed, same fingerprint"
    (Fault.Plan.fingerprint p1) (Fault.Plan.fingerprint p2);
  Alcotest.(check bool) "rate 0.5 fires" true (Fault.Plan.faults_injected p1 > 0);
  let p3 = Fault.Plan.make ~rate:0.5 ~seed:18 ~classes:[ "io" ] () in
  Alcotest.(check bool) "different seed, different log" true
    (decisions p3 <> d1);
  (* A site outside the armed classes — and any unknown name — never
     faults, and with no armed plan nothing does. *)
  let p4 = Fault.Plan.make ~rate:1.0 ~seed:1 ~classes:[ "io" ] () in
  with_plan p4 (fun () ->
      Alcotest.(check bool) "class off" false (Fault.should_fail "conn.read");
      Alcotest.(check bool) "unknown site" false (Fault.should_fail "no.such.site"));
  Alcotest.(check bool) "disarmed" false (Fault.should_fail "store.write")

let test_admission_drain_race () =
  (* Property: whatever the interleaving of try_push against a
     concurrent close + drain, no request is both shed and executed,
     and every accepted request executes exactly once. *)
  let round ~jobs ~per_pusher =
    let pushers = 2 in
    let total = pushers * per_pusher in
    let q = Admission.create () in
    let accepted = Array.make total false in
    let executed = Array.make total 0 in
    let exec_lock = Mutex.create () in
    let workers =
      List.init jobs (fun _ ->
          Thread.create
            (fun () ->
              let rec loop () =
                match Admission.pop q with
                | None -> ()
                | Some i ->
                  Mutex.lock exec_lock;
                  executed.(i) <- executed.(i) + 1;
                  Mutex.unlock exec_lock;
                  Thread.yield ();
                  loop ()
              in
              loop ())
            ())
    in
    let push_threads =
      List.init pushers (fun p ->
          Thread.create
            (fun () ->
              for k = 0 to per_pusher - 1 do
                let i = (p * per_pusher) + k in
                accepted.(i) <- Admission.try_push q i;
                if k mod 8 = 0 then Thread.yield ()
              done)
            ())
    in
    (* Close while the pushers are still racing. *)
    Thread.yield ();
    Admission.close q;
    List.iter Thread.join push_threads;
    List.iter Thread.join workers;
    Array.iteri
      (fun i n ->
        if accepted.(i) then
          Alcotest.(check int) (Printf.sprintf "jobs %d: accepted %d runs once" jobs i) 1 n
        else
          Alcotest.(check int) (Printf.sprintf "jobs %d: shed %d never runs" jobs i) 0 n)
      executed
  in
  List.iter
    (fun jobs -> for _ = 1 to 5 do round ~jobs ~per_pusher:100 done)
    [ 1; 4 ]

let chaos_instances ~seed ~count = List.init count (Check.Gen.ith ~seed ~size:4)

let session_verdict sess (inst : Check.Instance.t) =
  match
    Client.call sess
      (Protocol.analyze ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat)
  with
  | Error e -> Alcotest.failf "session call failed: %s" e
  | Ok (reply, attempts) ->
    Alcotest.(check bool) "session reply ok" true (Protocol.reply_ok reply);
    (match Json.member "verdict" reply with
    | Some v -> (Json.to_string v, attempts)
    | None -> Alcotest.fail "session reply without verdict")

let test_client_retry_conn_faults () =
  (* Under connection faults (resets, dropped replies, accept-time
     closes) the retrying session must still answer every request,
     with verdicts byte-identical to a fault-free local check. *)
  let store_path = fresh_path ".store" in
  let server = boot ~store_path () in
  let _, _, sock = server in
  let insts = chaos_instances ~seed:101 ~count:8 in
  let plan = Fault.Plan.make ~rate:0.15 ~seed:11 ~classes:[ "conn" ] () in
  (* Each attempt crosses several conn sites, so the per-attempt
     failure odds are a few times the per-consult rate; give the
     session headroom beyond the default 8 attempts. *)
  let retry = { Client.default_retry with Client.max_attempts = 16 } in
  with_plan plan (fun () ->
      let sess = Client.session ~retry (`Unix sock) in
      for k = 0 to 39 do
        let inst = List.nth insts (k mod List.length insts) in
        let verdict, _ = session_verdict sess inst in
        Alcotest.(check string) "verdict matches direct check" (direct_verdict inst) verdict
      done;
      Client.close_session sess;
      Alcotest.(check bool) "plan fired" true (Fault.Plan.faults_injected plan > 0));
  shutdown server;
  Sys.remove store_path

let test_load_conn_faults () =
  (* Connections die under seeded connection faults: what they had in
     flight counts as errors, what they had not sent moves to the
     survivors, and every request is accounted for exactly once.  At
     this rate a few connections die and the rest carry the run. *)
  let server = boot () in
  let _, _, sock = server in
  let plan = Fault.Plan.make ~rate:0.005 ~seed:7 ~classes:[ "conn" ] () in
  let r =
    with_plan plan (fun () ->
        Client.load (`Unix sock)
          { Client.default_load with requests = 200; concurrency = 4; distinct = 16 })
  in
  Alcotest.(check int) "every request accounted for" 200
    (r.Client.ok + r.Client.shed + r.Client.draining + r.Client.deadline_exceeded
   + r.Client.errors);
  Alcotest.(check bool) "faults cost requests" true (r.Client.errors > 0);
  Alcotest.(check bool) "survivors answered" true (r.Client.ok > 0);
  Alcotest.(check int) "no disagreements" 0 r.Client.disagreements;
  shutdown server

let test_worker_supervision () =
  (* Killed batcher workers respawn without losing queued requests:
     every request is still answered and the death counter proves the
     supervisor actually ran. *)
  let server = boot () in
  let d, _, sock = server in
  let insts = chaos_instances ~seed:202 ~count:6 in
  let plan = Fault.Plan.make ~rate:0.5 ~seed:5 ~classes:[ "worker" ] () in
  with_plan plan (fun () ->
      let sess = Client.session (`Unix sock) in
      List.iteri
        (fun i inst ->
          ignore i;
          let verdict, _ = session_verdict sess inst in
          Alcotest.(check string) "served across deaths" (direct_verdict inst) verdict)
        (List.concat_map (fun _ -> insts) [ (); (); (); (); () ]);
      Client.close_session sess);
  Alcotest.(check bool) "workers died and respawned" true (Daemon.worker_deaths d > 0);
  shutdown server

let test_chaos_determinism () =
  let cfg =
    { Cluster.Chaos.default_config with seed = 9; requests = 120; rate = 0.15 }
  in
  let r1 = Cluster.Chaos.run cfg in
  let r2 = Cluster.Chaos.run cfg in
  Alcotest.(check (list string)) "log lines identical"
    r1.Cluster.Chaos.fault_log r2.Cluster.Chaos.fault_log;
  Alcotest.(check string) "same seed, same fault log"
    r1.Cluster.Chaos.fingerprint r2.Cluster.Chaos.fingerprint;
  Alcotest.(check bool) "run 1 converged" true r1.Cluster.Chaos.converged;
  Alcotest.(check bool) "run 2 converged" true r2.Cluster.Chaos.converged;
  Alcotest.(check bool) "faults fired" true (r1.Cluster.Chaos.faults > 0);
  Alcotest.(check int) "no lost acknowledged writes" 0 r1.Cluster.Chaos.lost_writes;
  Alcotest.(check int) "no disagreements" 0 r1.Cluster.Chaos.disagreements

let test_stale_socket_recovery () =
  (* A SIGKILLed daemon leaves its socket file behind; the next create
     must probe it, find it dead, and bind in its place. *)
  let path = fresh_path ".sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale socket present" true (Sys.file_exists path);
  let cfg =
    { (Daemon.default_config (Daemon.Unix_sock path)) with jobs = Some 2 }
  in
  let d = Daemon.create cfg in
  let th = Thread.create Daemon.run d in
  let conn = Client.connect (`Unix path) in
  let reply = Client.request conn (Protocol.ping ~id:(Json.Int 1) ()) in
  Alcotest.(check bool) "rebound over stale socket" true (Protocol.reply_ok reply);
  (* A live listener is never clobbered. *)
  Alcotest.(check bool) "live socket refused" true
    (try
       ignore (Daemon.create cfg);
       false
     with Failure _ -> true);
  Client.close conn;
  Daemon.initiate_drain d;
  Thread.join th;
  Alcotest.(check bool) "socket unlinked on clean exit" false (Sys.file_exists path);
  (* A path that is not a socket at all is refused, not unlinked. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "data");
  Alcotest.(check bool) "non-socket refused" true
    (try
       ignore (Daemon.create cfg);
       false
     with Failure _ -> true);
  Alcotest.(check bool) "non-socket preserved" true (Sys.file_exists path);
  Sys.remove path

(* --------------------------- versioned wire -------------------------- *)

module Poll = Server.Poll

let feed_all dec s = Wire.feed dec (Bytes.of_string s) 0 (String.length s)
let gen_inst i = Check.Gen.ith ~seed:77 ~size:4 i

(* [server.queue_wait_ms] is observed once per queued request, when a
   worker pops it; a reply answered on the event loop (ping) adds
   none. *)
let test_queue_wait_observed () =
  let observed () =
    match List.assoc_opt "server.queue_wait_ms" (Obs.Metrics.snapshot ()).Obs.Metrics.histograms with
    | Some h -> h.Obs.Metrics.count
    | None -> 0
  in
  let before = observed () in
  let server = boot () in
  let d, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  let n = 5 in
  for i = 0 to n - 1 do
    ignore (analyze_via conn (gen_inst i))
  done;
  Alcotest.(check bool) "ping answered" true
    (Protocol.reply_ok (Client.request conn (Protocol.ping ~id:(Json.Int 1) ())));
  Client.close conn;
  shutdown server;
  let accepted =
    match List.assoc_opt "accepted" (Daemon.stats_fields d) with Some (Json.Int n) -> n | _ -> -1
  in
  Alcotest.(check int) "every analyze queued" n accepted;
  Alcotest.(check int) "one observation per queued request" accepted (observed () - before)

let test_wire_roundtrip () =
  let doc = Json.to_string (Protocol.ping ~id:(Json.Int 3) ()) in
  List.iter
    (fun v ->
      let dec = Wire.decoder v in
      feed_all dec (Wire.encode v (Wire.Text doc));
      (match Wire.next dec with
      | Wire.Frame (Wire.Text s) ->
        Alcotest.(check string) (Wire.version_name v ^ " text roundtrip") doc s
      | _ -> Alcotest.fail "expected a text frame");
      Alcotest.(check bool) "decoder drained" true (Wire.next dec = Wire.Need_more);
      Alcotest.(check int) "nothing buffered" 0 (Wire.buffered dec))
    [ Wire.V1; Wire.V2 ];
  (* Binary analyze: every field survives, even delivered one byte at
     a time. *)
  let inst = gen_inst 0 in
  let mu = inst.Check.Instance.mu and tmat = inst.Check.Instance.tmat in
  let enc =
    Wire.encode Wire.V2 (Wire.Bin_analyze { id = 42; deadline_ms = Some 250; mu; tmat })
  in
  let dec = Wire.decoder Wire.V2 in
  String.iter
    (fun c ->
      (match Wire.next dec with
      | Wire.Need_more -> ()
      | _ -> Alcotest.fail "frame decoded before its last byte");
      feed_all dec (String.make 1 c))
    enc;
  (match Wire.next dec with
  | Wire.Frame (Wire.Bin_analyze { id; deadline_ms; mu = mu'; tmat = tmat' }) ->
    Alcotest.(check int) "analyze id" 42 id;
    Alcotest.(check (option int)) "analyze deadline" (Some 250) deadline_ms;
    Alcotest.(check (array int)) "analyze mu" mu mu';
    Alcotest.(check bool) "analyze matrix" true (Intmat.equal tmat tmat')
  | _ -> Alcotest.fail "expected a binary analyze frame");
  (* [-1] is the frame's "none"; a negative deadline has no encoding. *)
  Alcotest.(check bool) "negative deadline refused" true
    (match Wire.encode Wire.V2 (Wire.Bin_analyze { id = 1; deadline_ms = Some (-5); mu; tmat }) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Binary verdict, witness branch included. *)
  let w =
    {
      Protocol.conflict_free = false;
      full_rank = true;
      decided_by = "oracle";
      witness = Some [ 1; -2; 3 ];
    }
  in
  let dec = Wire.decoder Wire.V2 in
  feed_all dec (Wire.encode Wire.V2 (Wire.Bin_verdict { id = 7; verdict = w; store = "hit" }));
  (match Wire.next dec with
  | Wire.Frame (Wire.Bin_verdict { id; verdict; store }) ->
    Alcotest.(check int) "verdict id" 7 id;
    Alcotest.(check string) "verdict store" "hit" store;
    Alcotest.(check string) "verdict bytes"
      (Json.to_string (Protocol.json_of_wire w))
      (Json.to_string (Protocol.json_of_wire verdict))
  | _ -> Alcotest.fail "expected a binary verdict frame");
  (* Pinned ['V'] bytes, flag bit 2 set: Example 3.1's T with its
     witness (5,-2,3) trapped at mu = (5,2,3), and free at
     mu = (4,4,4). *)
  let hex s =
    String.concat "" (List.of_seq (Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (String.to_seq s)))
  in
  List.iter
    (fun (name, id, mu, store, want) ->
      let verdict = Protocol.wire_of_verdict (Analysis.check ~mu t1) in
      Alcotest.(check string) name want
        (hex (Wire.encode Wire.V2 (Wire.Bin_verdict { id; verdict; store }))))
    [
      ( "V frame with a witness", 7, [| 5; 2; 3 |], "hit",
        "000000265600000000000000070e680d61646a75676174652d666f726d0300000005fffffffe00000003" );
      ( "V frame without a witness", 8, mu1, "miss",
        "00000019560000000000000008076d0d61646a75676174652d666f726d" );
    ];
  (* v1 cannot carry binary frames or embedded newlines. *)
  Alcotest.(check bool) "v1 rejects binary frames" true
    (try
       ignore (Wire.encode Wire.V1 (Wire.Bin_verdict { id = 1; verdict = w; store = "hit" }));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "v1 rejects embedded newline" true
    (try
       ignore (Wire.encode Wire.V1 (Wire.Text "a\nb"));
       false
     with Invalid_argument _ -> true)

let test_wire_decoder_fuzz () =
  (* Seeded adversarial streams: truncations, bit flips, raw garbage,
     random chunk boundaries.  The decoder must never raise, never
     hoard more than it was fed, and stay poisoned once corrupt. *)
  let rng = Random.State.make [| 0xF5A2; 20260807 |] in
  let insts = Array.init 6 gen_inst in
  let ri n = Random.State.int rng n in
  let valid v =
    match ri 3 with
    | 0 -> Wire.encode v (Wire.Text (Json.to_string (Protocol.ping ~id:(Json.Int (ri 1000)) ())))
    | 1 ->
      let inst = insts.(ri 6) in
      let mu = inst.Check.Instance.mu and tmat = inst.Check.Instance.tmat in
      if v = Wire.V2 then
        Wire.encode v
          (Wire.Bin_analyze
             {
               id = ri 1000;
               deadline_ms = (if ri 2 = 0 then None else Some (ri 10_000));
               mu;
               tmat;
             })
      else Wire.encode v (Wire.Text (Json.to_string (Protocol.analyze ~id:(Json.Int (ri 1000)) ~mu tmat)))
    | _ -> Wire.encode v (Wire.Text (Json.to_string (Protocol.stats_request ())))
  in
  let mangle s =
    match ri 4 with
    | 0 -> String.sub s 0 (ri (String.length s))
    | 1 ->
      let b = Bytes.of_string s in
      let i = ri (Bytes.length b) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl ri 8)));
      Bytes.to_string b
    | 2 -> String.init (1 + ri 64) (fun _ -> Char.chr (ri 256))
    | _ -> s
  in
  List.iter
    (fun v ->
      for _round = 1 to 200 do
        let dec = Wire.decoder v in
        let stream = String.concat "" (List.init (1 + ri 4) (fun _ -> mangle (valid v))) in
        let n = String.length stream in
        let pos = ref 0 in
        (try
           while !pos < n do
             let len = min (n - !pos) (1 + ri 97) in
             Wire.feed dec (Bytes.of_string (String.sub stream !pos len)) 0 len;
             pos := !pos + len;
             let rec drain () =
               match Wire.next dec with
               | Wire.Frame _ -> drain ()
               | Wire.Need_more | Wire.Corrupt _ -> ()
             in
             drain ();
             Alcotest.(check bool) "buffer bounded" true (Wire.buffered dec <= n)
           done
         with e -> Alcotest.failf "decoder raised on mangled input: %s" (Printexc.to_string e));
        match Wire.next dec with
        | Wire.Corrupt msg -> (
          feed_all dec (valid v);
          match Wire.next dec with
          | Wire.Corrupt msg' -> Alcotest.(check string) "corrupt is sticky" msg msg'
          | _ -> Alcotest.fail "decoder resurrected after corruption")
        | Wire.Need_more | Wire.Frame _ -> ()
      done)
    [ Wire.V1; Wire.V2 ];
  (* v1 bytes on a v2 connection read as an absurd length prefix or a
     bad tag — rejected or starved, never decoded as a frame. *)
  let dec = Wire.decoder Wire.V2 in
  feed_all dec (Wire.encode Wire.V1 (Wire.Text (Json.to_string (Protocol.ping ~id:(Json.Int 1) ()))));
  match Wire.next dec with
  | Wire.Frame _ -> Alcotest.fail "v1 bytes decoded as a v2 frame"
  | Wire.Corrupt _ | Wire.Need_more -> ()

(* Raw-socket helpers: these tests forge frames byte by byte, which
   [Client] rightly makes impossible. *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let w = ref 0 in
  while !w < n do
    w := !w + Unix.write fd b !w (n - !w)
  done

let raw_send_line fd s = raw_send fd (s ^ "\n")

let raw_read_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> Alcotest.failf "eof before reply line (got %S)" (Buffer.contents buf)
    | _ ->
      let c = Bytes.get one 0 in
      if c = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()

let raw_read_exact fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    match Unix.read fd b !got (n - !got) with
    | 0 -> Alcotest.failf "eof after %d of %d bytes" !got n
    | r -> got := !got + r
  done;
  Bytes.to_string b

let raw_read_v2_text fd =
  let len = Int32.to_int (String.get_int32_be (raw_read_exact fd 4) 0) in
  let payload = raw_read_exact fd len in
  Alcotest.(check char) "json frame tag" 'J' payload.[0];
  String.sub payload 1 (len - 1)

let raw_expect_eof fd =
  match Unix.read fd (Bytes.create 1) 0 1 with
  | 0 -> ()
  | _ -> Alcotest.fail "expected the server to drop the connection"
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()

let parse_reply line =
  match Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparsable reply %S: %s" line e

let expect_parse_error line =
  let reply = parse_reply line in
  Alcotest.(check bool) "reply is an error" false (Protocol.reply_ok reply);
  Alcotest.(check (option string)) "parse_error code" (Some "parse_error")
    (Protocol.error_code reply)

let test_live_oversized_frames () =
  let server = boot () in
  let _, _, sock = server in
  (* v1: a request line over the cap earns one structured parse_error,
     then the connection is dropped. *)
  let fd = raw_connect sock in
  let huge = String.make (Protocol.max_line_bytes + 4096) 'x' in
  (* The server may drop us mid-write once the cap trips; the reply is
     already buffered on our side by then. *)
  (try raw_send fd huge
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  expect_parse_error (raw_read_line fd);
  raw_expect_eof fd;
  Unix.close fd;
  (* v2: the length prefix alone condemns the frame — no payload ever
     crosses the wire, the reply is a length-prefixed parse_error,
     then EOF.  Same behavior as the v1 line cap. *)
  let fd = raw_connect sock in
  raw_send_line fd (Json.to_string (Protocol.hello ~id:(Json.Int 0) ~transport:"binary" ()));
  Alcotest.(check bool) "hello acked" true (Protocol.reply_ok (parse_reply (raw_read_line fd)));
  let header = Bytes.create 5 in
  Bytes.set_int32_be header 0 (Int32.of_int (Wire.max_frame_bytes + 1));
  Bytes.set header 4 'J';
  raw_send fd (Bytes.to_string header);
  expect_parse_error (raw_read_v2_text fd);
  raw_expect_eof fd;
  Unix.close fd;
  shutdown server

let test_live_hello_negotiation () =
  let store_path = fresh_path ".store" in
  let server = boot ~store_path () in
  let _, _, sock = server in
  let insts = List.init 4 gen_inst in
  (* Negotiated binary connection: verdicts byte-identical to a direct
     local check, cold and warm. *)
  let conn = Client.connect ~transport:Wire.V2 (`Unix sock) in
  List.iter
    (fun inst ->
      let verdict, status = analyze_via conn inst in
      Alcotest.(check string) "binary cold verdict" (direct_verdict inst) verdict;
      Alcotest.(check string) "binary cold status" "miss" status)
    insts;
  List.iter
    (fun inst ->
      let verdict, status = analyze_via conn inst in
      Alcotest.(check string) "binary warm verdict" (direct_verdict inst) verdict;
      Alcotest.(check string) "binary warm status" "hit" status)
    insts;
  let stats = Client.request conn (Protocol.stats_request ~id:(Json.Int 9) ()) in
  (match Json.member "transport" stats with
  | Some tr -> (
    match (Json.member "max" tr, Json.member "binary_negotiated" tr) with
    | Some (Json.Str "binary"), Some (Json.Int n) ->
      Alcotest.(check bool) "binary connection counted" true (n >= 1)
    | _ -> Alcotest.fail "stats without transport.max/binary_negotiated")
  | None -> Alcotest.fail "stats reply without transport");
  Client.close conn;
  (* An unknown transport name is a bad_request; the connection stays
     as it was, on v1. *)
  let fd = raw_connect sock in
  raw_send_line fd (Json.to_string (Protocol.hello ~id:(Json.Int 1) ~transport:"carrier-pigeon" ()));
  let reply = parse_reply (raw_read_line fd) in
  Alcotest.(check bool) "unknown transport refused" false (Protocol.reply_ok reply);
  Alcotest.(check (option string)) "bad_request" (Some "bad_request") (Protocol.error_code reply);
  raw_send_line fd (Json.to_string (Protocol.ping ~id:(Json.Int 2) ()));
  Alcotest.(check bool) "connection survives the refusal" true
    (Protocol.reply_ok (parse_reply (raw_read_line fd)));
  Unix.close fd;
  shutdown server;
  Sys.remove store_path;
  (* A server pinned to v1 refuses the upgrade; json clients are
     unaffected. *)
  let sock = fresh_path ".sock" in
  let cfg =
    { (Daemon.default_config (Daemon.Unix_sock sock)) with
      jobs = Some 2;
      max_transport = Wire.V1 }
  in
  let d = Daemon.create cfg in
  let th = Thread.create Daemon.run d in
  (match Client.connect ~transport:Wire.V2 (`Unix sock) with
  | exception Failure _ -> ()
  | conn ->
    Client.close conn;
    Alcotest.fail "v1-pinned server accepted the binary transport");
  let conn = Client.connect (`Unix sock) in
  Alcotest.(check bool) "json still served" true
    (Protocol.reply_ok (Client.request conn (Protocol.ping ~id:(Json.Int 3) ())));
  Client.close conn;
  Daemon.initiate_drain d;
  Thread.join th

let test_singleflight_coalescing () =
  (* N identical cold analyzes arriving while every worker is pinned
     on a slow search: exactly one analysis dispatch, one store
     append, and N acks with byte-identical verdicts. *)
  let round jobs =
    let sock = fresh_path ".sock" in
    let store_path = fresh_path ".store" in
    let cfg =
      { (Daemon.default_config (Daemon.Unix_sock sock)) with
        jobs = Some jobs;
        store_path = Some store_path }
    in
    let d = Daemon.create cfg in
    let th = Thread.create Daemon.run d in
    let inst = Check.Gen.ith ~seed:33 ~size:4 0 in
    let n = 8 and workers = max 2 (jobs - 1) in
    let fd = raw_connect sock in
    (* One write: one slow search per worker (matmul mu 20 Pareto,
       tens of ms each; the first search starts them all), the
       identical burst right behind them.  The loop parks all N in one
       singleflight group long before a worker is free to reach the
       leader. *)
    let burst = Buffer.create 1024 in
    for k = 1 to workers do
      Buffer.add_string burst
        (Json.to_string
           (Protocol.search ~id:(Json.Int (-k)) ~pareto:true ~algorithm:"matmul" ~mu:20 ()));
      Buffer.add_char burst '\n'
    done;
    for i = 1 to n do
      Buffer.add_string burst
        (Json.to_string
           (Protocol.analyze ~id:(Json.Int i) ~mu:inst.Check.Instance.mu
              inst.Check.Instance.tmat));
      Buffer.add_char burst '\n'
    done;
    raw_send fd (Buffer.contents burst);
    let replies = Hashtbl.create 16 in
    for _ = 1 to n + workers do
      let reply = parse_reply (raw_read_line fd) in
      match Protocol.reply_id reply with
      | Json.Int i -> Hashtbl.replace replies i reply
      | _ -> Alcotest.fail "reply without integer id"
    done;
    let expected = direct_verdict inst in
    for i = 1 to n do
      match Hashtbl.find_opt replies i with
      | None -> Alcotest.failf "missing reply %d" i
      | Some reply ->
        Alcotest.(check bool) (Printf.sprintf "jobs %d: reply %d ok" jobs i) true
          (Protocol.reply_ok reply);
        (match Json.member "verdict" reply with
        | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "jobs %d: verdict %d byte-identical" jobs i)
            expected (Json.to_string v)
        | None -> Alcotest.fail "analyze reply without verdict");
        (match Json.member "store" reply with
        | Some (Json.Str s) ->
          Alcotest.(check string) (Printf.sprintf "jobs %d: store status %d" jobs i) "miss" s
        | _ -> Alcotest.fail "analyze reply without store status")
    done;
    (* The daemon's own counters agree: one group, N-1 coalesced, one
       append. *)
    raw_send_line fd (Json.to_string (Protocol.stats_request ~id:(Json.Int 99) ()));
    let stats = parse_reply (raw_read_line fd) in
    (match Json.member "singleflight" stats with
    | Some sf -> (
      match (Json.member "groups" sf, Json.member "coalesced" sf) with
      | Some (Json.Int g), Some (Json.Int c) ->
        Alcotest.(check int) (Printf.sprintf "jobs %d: one group" jobs) 1 g;
        Alcotest.(check int) (Printf.sprintf "jobs %d: followers coalesced" jobs) (n - 1) c
      | _ -> Alcotest.fail "stats without singleflight.groups/coalesced")
    | None -> Alcotest.fail "stats reply without singleflight");
    (match Json.member "store" stats with
    | Some st -> (
      match Json.member "appended" st with
      | Some (Json.Int a) ->
        Alcotest.(check int) (Printf.sprintf "jobs %d: one store append" jobs) 1 a
      | _ -> Alcotest.fail "stats without store.appended")
    | None -> Alcotest.fail "stats reply without store");
    Unix.close fd;
    Daemon.initiate_drain d;
    Thread.join th;
    (* Reopening the journal shows exactly one persisted record, and
       it is the verdict everyone was acked with. *)
    let s = Store.open_ store_path in
    Alcotest.(check int)
      (Printf.sprintf "jobs %d: one journal record" jobs)
      1 (Store.stats s).Store.loaded;
    Alcotest.(check bool) (Printf.sprintf "jobs %d: the record survives" jobs) true
      (Store.find s ~mu:inst.Check.Instance.mu inst.Check.Instance.tmat <> None);
    Store.close s;
    Sys.remove store_path
  in
  List.iter round [ 1; 4 ]

let test_long_search_leaves_a_worker () =
  (* Even at jobs 1, admitting a search starts a second worker: a cold
     analyze queued right behind a long search (matmul mu 40 Pareto, a
     few hundred ms) is answered while the search still runs. *)
  let sock = fresh_path ".sock" in
  let d = Daemon.create { (Daemon.default_config (Daemon.Unix_sock sock)) with jobs = Some 1 } in
  let th = Thread.create Daemon.run d in
  let fd = raw_connect sock in
  raw_send fd
    (String.concat "\n"
       [
         Json.to_string (Protocol.search ~id:(Json.Int 0) ~pareto:true ~algorithm:"matmul" ~mu:40 ());
         Json.to_string (Protocol.analyze ~id:(Json.Int 1) ~mu:mu1 t1);
         "";
       ]);
  let order =
    List.init 2 (fun _ ->
        let reply = parse_reply (raw_read_line fd) in
        Alcotest.(check bool) "reply ok" true (Protocol.reply_ok reply);
        match Protocol.reply_id reply with Json.Int i -> i | _ -> Alcotest.fail "reply id")
  in
  Alcotest.(check (list int)) "analyze answered before the search" [ 1; 0 ] order;
  Unix.close fd;
  Daemon.initiate_drain d;
  Thread.join th

let test_live_transport_matrix () =
  let store_path = fresh_path ".store" in
  let server = boot ~store_path () in
  let _, _, sock = server in
  (* The same instance stream over both dialects, against the same
     store: three-way byte-identical verdicts. *)
  let insts = List.init 6 gen_inst in
  let cj = Client.connect (`Unix sock) in
  let cb = Client.connect ~transport:Wire.V2 (`Unix sock) in
  List.iter
    (fun inst ->
      let vj, _ = analyze_via cj inst in
      let vb, _ = analyze_via cb inst in
      let direct = direct_verdict inst in
      Alcotest.(check string) "json matches direct" direct vj;
      Alcotest.(check string) "binary matches json" vj vb)
    insts;
  Client.close cj;
  Client.close cb;
  (* Pipelined verified load over the binary transport: requests go
     out as 'A' frames, replies are id-matched (warm answers overtake
     cold ones), every verdict checked against a local check. *)
  let report =
    Client.load (`Unix sock)
      { Client.default_load with
        Client.requests = 400;
        concurrency = 4;
        distinct = 16;
        seed = 5;
        verify = true;
        transport = Wire.V2;
        pipeline = 8 }
  in
  Alcotest.(check int) "all requests answered ok" 400 report.Client.ok;
  Alcotest.(check int) "no disagreements" 0 report.Client.disagreements;
  Alcotest.(check int) "no transport errors" 0 report.Client.errors;
  Alcotest.(check string) "negotiated binary" "binary" report.Client.transport;
  shutdown server;
  Sys.remove store_path

let test_chaos_binary_transport () =
  (* The chaos harness over the negotiated binary framing: same
     convergence contract, and the fault log is still deterministic in
     the seed (per transport — the hello exchange adds consults). *)
  let cfg =
    { Cluster.Chaos.default_config with
      seed = 10;
      requests = 100;
      rate = 0.12;
      transport = Wire.V2 }
  in
  let r1 = Cluster.Chaos.run cfg in
  let r2 = Cluster.Chaos.run cfg in
  Alcotest.(check string) "binary session negotiated" "binary" r1.Cluster.Chaos.transport;
  Alcotest.(check (list string)) "same seed, same fault log"
    r1.Cluster.Chaos.fault_log r2.Cluster.Chaos.fault_log;
  Alcotest.(check bool) "run 1 converged" true r1.Cluster.Chaos.converged;
  Alcotest.(check bool) "run 2 converged" true r2.Cluster.Chaos.converged;
  Alcotest.(check int) "no lost acked writes" 0 r1.Cluster.Chaos.lost_writes;
  Alcotest.(check bool) "faults fired" true (r1.Cluster.Chaos.faults > 0)

let test_poll_readiness () =
  let r, w = Unix.pipe () in
  let want_read = { Poll.want_read = true; want_write = false } in
  let want_write = { Poll.want_read = false; want_write = true } in
  (* An idle pipe reports nothing readable, even at a zero timeout. *)
  let evs = Poll.wait [ (r, want_read) ] ~timeout_ms:0 in
  Alcotest.(check bool) "idle pipe not readable" true
    (List.for_all (fun (_, e) -> not e.Poll.ready_read) evs);
  ignore (Unix.write w (Bytes.of_string "x") 0 1);
  let evs = Poll.wait [ (r, want_read); (w, want_write) ] ~timeout_ms:1000 in
  Alcotest.(check bool) "readable after write" true
    (List.exists (fun (fd, e) -> fd = r && e.Poll.ready_read) evs);
  Alcotest.(check bool) "pipe writable" true
    (List.exists (fun (fd, e) -> fd = w && e.Poll.ready_write) evs);
  ignore (Unix.read r (Bytes.create 8) 0 8);
  Unix.close w;
  (* EOF surfaces as readability (the read then returns 0), whichever
     backend is in use. *)
  let evs = Poll.wait [ (r, want_read) ] ~timeout_ms:1000 in
  Alcotest.(check bool) "eof is readable" true
    (List.exists (fun (fd, e) -> fd = r && (e.Poll.ready_read || e.Poll.ready_error)) evs);
  Unix.close r;
  ignore (Poll.backend ())


(* ------------------------- gray-failure tier ------------------------ *)

let test_deadline_exceeded_no_dispatch () =
  (* An analyze whose remaining budget is already spent on arrival must
     be answered [deadline_exceeded] before any dispatch: the
     [analysis.queries] counter (bumped by every real Analysis.check)
     must not move. *)
  let server = boot () in
  let _, _, sock = server in
  let conn = Client.connect (`Unix sock) in
  let inst = Check.Gen.ith ~seed:77 ~size:4 0 in
  let queries = Obs.Metrics.counter "analysis.queries" in
  let before = Obs.Metrics.value queries in
  let reply =
    Client.request conn
      (Protocol.analyze ~id:(Json.Int 1) ~deadline_ms:0 ~mu:inst.Check.Instance.mu
         inst.Check.Instance.tmat)
  in
  Alcotest.(check bool) "expired budget rejected" false (Protocol.reply_ok reply);
  Alcotest.(check (option string)) "deadline_exceeded code"
    (Some "deadline_exceeded") (Protocol.error_code reply);
  Alcotest.(check int) "no Analysis.check dispatched" before
    (Obs.Metrics.value queries);
  (* A negative deadline has no meaning on either transport: it is
     refused as a bad request, also before any dispatch. *)
  let reply =
    Client.request conn
      (Protocol.analyze ~id:(Json.Int 2) ~deadline_ms:(-5) ~mu:inst.Check.Instance.mu
         inst.Check.Instance.tmat)
  in
  Alcotest.(check (option string)) "negative budget refused" (Some "bad_request")
    (Protocol.error_code reply);
  Alcotest.(check int) "still no dispatch" before (Obs.Metrics.value queries);
  (* The same request with headroom goes through and computes. *)
  let reply =
    Client.request conn
      (Protocol.analyze ~id:(Json.Int 3) ~deadline_ms:60_000 ~mu:inst.Check.Instance.mu
         inst.Check.Instance.tmat)
  in
  Alcotest.(check bool) "live budget answers" true (Protocol.reply_ok reply);
  Alcotest.(check bool) "dispatch counted" true (Obs.Metrics.value queries > before);
  Client.close conn;
  shutdown server

let drive_limiter lim ~threads ~per_thread ~latency_ms =
  let ths =
    List.init threads (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to per_thread do
              while not (Server.Limiter.try_admit lim) do
                Thread.yield ()
              done;
              Server.Limiter.release lim ~latency_ms
            done)
          ())
  in
  List.iter Thread.join ths

let test_limiter_aimd () =
  (* The AIMD property at 1 and 4 driver threads: sustained
     over-target completions walk the limit down to the floor;
     sustained fast completions walk it back to the ceiling.  Windows
     are counted in completions, not seconds, so the property is
     schedule-independent. *)
  List.iter
    (fun threads ->
      let lim = Server.Limiter.create ~min_limit:2 ~target_ms:5. ~max_limit:64 () in
      Alcotest.(check int) "starts wide open" 64 (Server.Limiter.limit lim);
      drive_limiter lim ~threads ~per_thread:(800 / threads) ~latency_ms:50.;
      Alcotest.(check bool)
        (Printf.sprintf "slow completions shrink the limit (threads=%d)" threads)
        true
        (Server.Limiter.limit lim <= 8);
      Alcotest.(check bool) "multiple decreases" true (Server.Limiter.decreases lim > 2);
      drive_limiter lim ~threads ~per_thread:(4000 / threads) ~latency_ms:0.5;
      Alcotest.(check int)
        (Printf.sprintf "fast completions restore the ceiling (threads=%d)" threads)
        64 (Server.Limiter.limit lim);
      Alcotest.(check bool) "floor respected" true (Server.Limiter.limit lim >= 2))
    [ 1; 4 ]

let test_retry_token_bucket () =
  (* Against a permanently unresponsive server (accepts, never
     replies) the session's re-issues are capped by the retry token
     bucket, not by max_attempts: budget 2 with no refill means one
     initial attempt plus exactly two retries — three accepted
     connections — before the call gives up. *)
  let path = fresh_path ".sock" in
  let listener = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 8;
  let accepts = Atomic.make 0 in
  let stop = Atomic.make false in
  let acceptor =
    Thread.create
      (fun () ->
        let held = ref [] in
        (try
           while not (Atomic.get stop) do
             let fd, _ = Unix.accept listener in
             Atomic.incr accepts;
             held := fd :: !held
           done
         with Unix.Unix_error _ -> ());
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held)
      ()
  in
  let session =
    Client.session
      ~retry:
        {
          Client.default_retry with
          max_attempts = 8;
          base_delay_ms = 1.;
          max_delay_ms = 2.;
          timeout_ms = 40.;
          retry_budget = 2;
          retry_refill_per_s = 0.;
        }
      (`Unix path)
  in
  (match Client.call session (Protocol.ping ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unresponsive server produced a reply");
  Client.close_session session;
  Atomic.set stop true;
  (try Unix.shutdown listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close listener with Unix.Unix_error _ -> ());
  Thread.join acceptor;
  Sys.remove path;
  Alcotest.(check int) "budget caps re-issues" 3 (Atomic.get accepts)

let test_gray_chaos_determinism () =
  (* Latency faults are ambient: they stall, they count, but they are
     never logged per event — so arming them alongside a logged class
     keeps the same-seed fault log byte-identical even though stall
     timing is not schedule-deterministic. *)
  let cfg =
    { Cluster.Chaos.default_config with
      seed = 23;
      requests = 100;
      rate = 0.1;
      classes = [ "latency"; "io" ];
      delay_ms = 5 }
  in
  let r1 = Cluster.Chaos.run cfg in
  let r2 = Cluster.Chaos.run cfg in
  Alcotest.(check string) "same seed, same fingerprint" r1.Cluster.Chaos.fingerprint
    r2.Cluster.Chaos.fingerprint;
  Alcotest.(check (list string)) "same seed, same fault log" r1.Cluster.Chaos.fault_log
    r2.Cluster.Chaos.fault_log;
  Alcotest.(check bool) "stalls were applied" true (r1.Cluster.Chaos.delays > 0);
  Alcotest.(check bool) "run 1 converged" true r1.Cluster.Chaos.converged;
  Alcotest.(check bool) "run 2 converged" true r2.Cluster.Chaos.converged;
  (* The arm-time record of each enabled latency site is in the log. *)
  Alcotest.(check bool) "latency sites recorded at arm" true
    (List.exists
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "conn.slow")
       r1.Cluster.Chaos.fault_log)

(* Accepted work is answered exactly: a cold analyze whose batch a
   stalled worker still holds when the drain starts runs to the verdict
   a direct Analysis.check gives, and is journaled like any other. *)
let test_live_drain_answers_exactly () =
  Engine.Cache.clear ();
  let store_path = fresh_path ".store" in
  let server = boot ~store_path () in
  let d, th, sock = server in
  let accepted () =
    match List.assoc_opt "accepted" (Daemon.stats_fields d) with Some (Json.Int n) -> n | _ -> 0
  in
  let conn = Client.connect (`Unix sock) in
  let reply = ref None in
  let plan = Fault.Plan.make ~rate:1.0 ~delay_ms:300 ~seed:5 ~classes:[ "latency" ] () in
  with_plan plan (fun () ->
      let requester =
        Thread.create
          (fun () -> reply := Some (Client.request conn (Protocol.analyze ~id:(Json.Int 1) ~mu:mu2 t2)))
          ()
      in
      (* The worker that pops the batch stalls 300 ms before it
         computes: drain as soon as the request is accepted. *)
      let rec await n =
        if accepted () = 0 then
          if n = 0 then Alcotest.fail "analyze never accepted"
          else (
            Thread.delay 0.005;
            await (n - 1))
      in
      await 2000;
      Daemon.initiate_drain d;
      Thread.join requester;
      Thread.join th);
  Client.close conn;
  let expected = Protocol.wire_of_verdict (Analysis.check ~mu:mu2 t2) in
  (match !reply with
  | Some r ->
    Alcotest.(check bool) "reply ok" true (Protocol.reply_ok r);
    Alcotest.(check (option string)) "exact verdict"
      (Some (Json.to_string (Protocol.json_of_wire expected)))
      (Option.map Json.to_string (Json.member "verdict" r));
    Alcotest.(check (option string)) "journaled" (Some "miss")
      (match Json.member "store" r with Some (Json.Str st) -> Some st | _ -> None)
  | None -> Alcotest.fail "no reply");
  let st = Store.open_ store_path in
  Alcotest.(check bool) "record survives the drain" true
    (Store.find st ~mu:mu2 t2 = Some expected);
  Store.close st;
  Sys.remove store_path

(* Verdicts and families share one table, kept apart by their key
   namespaces: a CRC-valid [v] line keyed [t=...] or [f] line keyed
   [mu=...] is refused by [ingest_line], quarantined by replay, and
   answers neither lookup, while a journal mixing both kinds replays
   to the same counts as ever. *)
let test_store_kind_boundary () =
  let line tag hash key payload =
    let body = Printf.sprintf "%08x %s %s" hash key payload in
    Printf.sprintf "%c %s %08x" tag body (Fault.fnv1a body)
  in
  let payload (e : Store.entry) =
    Printf.sprintf "free=%d;rank=%d;by=%s;wit=%s" (Bool.to_int e.Store.conflict_free)
      (Bool.to_int e.Store.full_rank) e.Store.decided_by
      (match e.Store.witness with
      | None -> "-"
      | Some w -> String.concat "," (List.map string_of_int w))
  in
  let verdict_line ~mu t e = line 'v' (Store.key_hash ~mu t) (Store.key_string ~mu t) (payload e) in
  (* An instance no well-formed record below covers. *)
  let mu3 = [| 5; 5; 5 |] and t3 = Intmat.of_ints [ [ 1; 2; 3 ]; [ 0; 1; 4 ] ] in
  let v_as_family =
    line 'v' (Store.family_hash t3) (Store.family_key_string t3)
      (payload (Store.entry_of_verdict (Analysis.check ~mu:mu3 t3)))
  and f_as_verdict =
    line 'f' (Store.key_hash ~mu:mu3 t3) (Store.key_string ~mu:mu3 t3)
      (Family.to_string (Family.build t3))
  in
  let absent s where =
    Alcotest.(check bool) (where ^ ": no verdict") true (Store.find s ~mu:mu3 t3 = None);
    Alcotest.(check bool) (where ^ ": no family") true (Store.find_family s t3 = None)
  in
  let e1 = Store.entry_of_verdict (Analysis.check ~mu:mu1 t1) in
  let e2 = Store.entry_of_verdict (Analysis.check ~mu:mu2 t2) in
  let e3 = Store.entry_of_verdict (Analysis.check ~mu:[| 9; 9; 9 |] t1) in
  (* Shipped lines: both refused, nothing applied. *)
  let path = fresh_path ".store" in
  let s = Store.open_ path in
  List.iter
    (fun (name, l) ->
      Alcotest.(check bool) (name ^ " refused") true (Result.is_error (Store.ingest_line s l)))
    [ ("v line keyed t=", v_as_family); ("f line keyed mu=", f_as_verdict) ];
  absent s "after ingest";
  Alcotest.(check int) "nothing appended" 0 (Store.stats s).Store.appended;
  Alcotest.(check int) "no family appended" 0 (Store.stats s).Store.f_appended;
  Store.close s;
  Sys.remove path;
  (* A journal holding them between well-formed records: both
     quarantined, the records around them loaded. *)
  let path = fresh_path ".store" in
  let s = Store.open_ path in
  Store.add s ~mu:mu1 t1 e1;
  Store.add_family s t1 (Family.build t1);
  Store.close s;
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [ v_as_family; f_as_verdict; verdict_line ~mu:mu2 t2 e2 ]);
  let s = Store.open_ path in
  let st = Store.stats s in
  Alcotest.(check int) "both quarantined" 2 st.Store.quarantined;
  Alcotest.(check (pair int int)) "surrounding records load" (2, 1)
    (st.Store.loaded, st.Store.f_loaded);
  Alcotest.(check bool) "verdict before" true (Store.find s ~mu:mu1 t1 = Some e1);
  Alcotest.(check bool) "verdict after" true (Store.find s ~mu:mu2 t2 = Some e2);
  Alcotest.(check bool) "family before" true (Store.find_family s t1 <> None);
  absent s "after replay";
  Store.close s;
  List.iter Sys.remove [ path; path ^ ".quarantine" ];
  (* Both kinds interleaved, one key superseded by a shipped record:
     last wins, and each kind counts its distinct keys. *)
  let path = fresh_path ".store" in
  let s = Store.open_ path in
  Store.add s ~mu:mu1 t1 e1;
  Store.add_family s t1 (Family.build t1);
  Store.add s ~mu:mu2 t2 e2;
  Store.add_family s t2 (Family.build t2);
  Store.add s ~mu:[| 9; 9; 9 |] t1 e3;
  let superseding =
    { Store.conflict_free = false; full_rank = true; decided_by = "shipped";
      witness = Some [ 1; 2; 3 ] }
  in
  Alcotest.(check bool) "superseding record applied" true
    (Store.ingest_line s (verdict_line ~mu:mu1 t1 superseding) = Ok ());
  Store.close s;
  let s = Store.open_ path in
  let st = Store.stats s in
  Alcotest.(check (pair int int)) "entries, families" (3, 2) (st.Store.entries, st.Store.families);
  Alcotest.(check (pair int int)) "loaded, f_loaded" (3, 2) (st.Store.loaded, st.Store.f_loaded);
  Alcotest.(check bool) "last record wins" true
    (Store.find s ~mu:mu1 t1 = Some superseding);
  Store.close s;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
    Alcotest.test_case "store crash recovery" `Quick test_store_crash_recovery;
    Alcotest.test_case "store corrupt record" `Quick test_store_corrupt_record;
    Alcotest.test_case "store foreign file" `Quick test_store_foreign_file;
    Alcotest.test_case "store hashes pinned" `Quick test_store_hashes_pinned;
    Alcotest.test_case "store opens persisted" `Quick test_store_opens_persisted;
    Alcotest.test_case "admission shedding" `Quick test_admission_shedding;
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
    Alcotest.test_case "protocol id echo" `Quick test_protocol_id_echo;
    Alcotest.test_case "live corpus differential" `Quick test_live_corpus_differential;
    Alcotest.test_case "live replay op" `Quick test_live_replay_op;
    Alcotest.test_case "live bad requests" `Quick test_live_bad_requests;
    Alcotest.test_case "live drain rejects" `Quick test_live_drain_rejects;
    Alcotest.test_case "live verified load" `Quick test_live_load_verified;
    Alcotest.test_case "load unreachable address" `Quick test_load_unreachable_address;
    Alcotest.test_case "load under conn faults" `Quick test_load_conn_faults;
    Alcotest.test_case "fault plan determinism" `Quick test_fault_plan_determinism;
    Alcotest.test_case "admission drain race" `Quick test_admission_drain_race;
    Alcotest.test_case "client retry under conn faults" `Quick test_client_retry_conn_faults;
    Alcotest.test_case "worker supervision" `Quick test_worker_supervision;
    Alcotest.test_case "chaos determinism" `Quick test_chaos_determinism;
    Alcotest.test_case "stale socket recovery" `Quick test_stale_socket_recovery;
    Alcotest.test_case "queue wait observed per queued request" `Quick test_queue_wait_observed;
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire decoder fuzz" `Quick test_wire_decoder_fuzz;
    Alcotest.test_case "live oversized frames" `Quick test_live_oversized_frames;
    Alcotest.test_case "live hello negotiation" `Quick test_live_hello_negotiation;
    Alcotest.test_case "singleflight coalescing" `Quick test_singleflight_coalescing;
    Alcotest.test_case "live transport matrix" `Quick test_live_transport_matrix;
    Alcotest.test_case "chaos binary transport" `Quick test_chaos_binary_transport;
    Alcotest.test_case "poll readiness" `Quick test_poll_readiness;
    Alcotest.test_case "deadline exceeded no dispatch" `Quick
      test_deadline_exceeded_no_dispatch;
    Alcotest.test_case "limiter aimd property" `Quick test_limiter_aimd;
    Alcotest.test_case "retry token bucket" `Quick test_retry_token_bucket;
    Alcotest.test_case "gray chaos determinism" `Quick test_gray_chaos_determinism;
    Alcotest.test_case "live simulate bounded" `Quick test_live_simulate_bounded;
    Alcotest.test_case "search candidates counted" `Quick test_search_candidates;
    Alcotest.test_case "live search bounded" `Quick test_live_search_bounded;
    Alcotest.test_case "reactor spans" `Quick test_reactor_spans;
    Alcotest.test_case "cold work leaves the loop domain" `Quick test_cold_work_off_loop;
    Alcotest.test_case "long search leaves a worker" `Quick test_long_search_leaves_a_worker;
    Alcotest.test_case "live drain answers exactly" `Quick test_live_drain_answers_exactly;
    Alcotest.test_case "store kind boundary" `Quick test_store_kind_boundary;
  ]
