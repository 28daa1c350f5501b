type entry = {
  conflict_free : bool;
  full_rank : bool;
  decided_by : string;
  witness : int list option;
}

(* The two kinds of journaled answer: a [v] verdict for one instance,
   keyed "mu=...;t=...", and an [f] family verdict for a mapping
   matrix, keyed "t=...".  The key namespaces are disjoint (replay and
   [ingest_line] refuse a record keyed outside its tag's), so one
   table holds both and one kind never answers the other. *)
type record = V of entry | F of Family.t

type t = {
  path : string;
  fsync_every : int;
  mutable oc : out_channel option;
  (* canonical key -> (content hash, record).  The key string alone
     addresses a record; the hash, the journal's and the snapshot
     index's record address, is kept to render the record again. *)
  table : (string, int * record) Hashtbl.t;
  (* Keys salvaged from quarantined (checksum-corrupt) records: these
     must not be served from memory until a fresh record re-verifies
     them — the lookup forces a miss, the insert clears the mark. *)
  quarantined_keys : (string, unit) Hashtbl.t;
  lock : Mutex.t;
  mutable pending : int; (* appends since the last fsync *)
  mutable hits : int;
  mutable misses : int;
  mutable appended : int;
  mutable loaded : int;
  mutable f_appended : int;
  mutable f_loaded : int;
  mutable dropped_bytes : int;
  mutable quarantined : int;
  mutable healed : int;
  mutable io_errors : int;
  (* Snapshot half of the snapshot + journal-tail warm start: memory
     (the replayed tail) is consulted first, so a tail record always
     shadows the snapshot's. *)
  mutable snap : Snapshot.t option;
  (* Retained across [close] so the drained stats still report the
     snapshot the store served from after the reader is dropped. *)
  mutable snap_entries : int;
  mutable snap_hits : int;
  mutable snap_corrupt : int;
  mutable open_ms : float;
  mutable provenance : string;
}

type stats = {
  entries : int;
  hits : int;
  misses : int;
  appended : int;
  loaded : int;
  families : int;
  f_appended : int;
  f_loaded : int;
  dropped_bytes : int;
  quarantined : int;
  healed : int;
  io_errors : int;
  snap_entries : int;
  snap_hits : int;
  snap_corrupt : int;
  open_ms : float;
  provenance : string;
}

let header = "shangfortes-store 1"

let m_hits = Obs.Metrics.counter "server.store.hits"
let m_misses = Obs.Metrics.counter "server.store.misses"
let m_quarantined = Obs.Metrics.counter "server.store.quarantined"
let m_healed = Obs.Metrics.counter "server.store.healed"
let m_io_errors = Obs.Metrics.counter "server.store.io_errors"
let m_snap_hits = Obs.Metrics.counter "server.store.snapshot_hits"
let m_snap_corrupt = Obs.Metrics.counter "server.store.snapshot_corrupt"
let h_open_ms = Obs.Metrics.histogram "server.store.open_ms"

(* ------------------------- key + record codec ---------------------- *)

let csv ints = String.concat "," (List.map string_of_int ints)

let parse_csv s =
  match List.map (fun x -> int_of_string (String.trim x)) (String.split_on_char ',' s) with
  | ints -> ints
  | exception Failure _ -> failwith "bad integer list"

let key_string ~mu t =
  let rows = List.map csv (Intmat.to_ints t) in
  Printf.sprintf "mu=%s;t=%s" (csv (Array.to_list mu)) (String.concat ";" rows)

(* Masked to 32 bits because that is what the journal records and the
   snapshot indexes — a snapshot read must look up the value the
   record was written under. *)
let key_hash ~mu t =
  Engine.Cache.key_hash (Intmat.append_row t (Intvec.of_int_array mu)) land 0xFFFFFFFF

(* Family records key on T alone: one record serves every mu. *)
let family_key_string t =
  Printf.sprintf "t=%s" (String.concat ";" (List.map csv (Intmat.to_ints t)))

let family_hash t = Engine.Cache.key_hash t land 0xFFFFFFFF

let entry_payload e =
  Printf.sprintf "free=%d;rank=%d;by=%s;wit=%s"
    (Bool.to_int e.conflict_free)
    (Bool.to_int e.full_rank)
    e.decided_by
    (match e.witness with None -> "-" | Some w -> csv w)

(* One record line per kind, same frame: "<tag> <hash-hex> <key>
   <payload> <crc-hex>" with tag 'v' for per-instance verdicts and 'f'
   for family verdicts (payload = Family.to_string).  No token contains
   a space (keys, entries and family strings are csv/semicolon/
   punctuation-separated), so the line splits unambiguously. *)
let tag = function V _ -> 'v' | F _ -> 'f'

let record_line hash key r =
  let payload = match r with V e -> entry_payload e | F fam -> Family.to_string fam in
  let body = Printf.sprintf "%08x %s %s" (hash land 0xFFFFFFFF) key payload in
  Printf.sprintf "%c %s %08x" (tag r) body (Fault.fnv1a body)

let parse_record line =
  match String.split_on_char ' ' line with
  | [ tag; hash_hex; key; payload; crc_hex ] when tag = "v" || tag = "f" ->
    let body = Printf.sprintf "%s %s %s" hash_hex key payload in
    let crc = int_of_string ("0x" ^ crc_hex) in
    if Fault.fnv1a body <> crc then failwith "checksum mismatch";
    let namespace = if tag = "v" then "mu=" else "t=" in
    if not (String.starts_with ~prefix:namespace key) then
      failwith (Printf.sprintf "%s record keyed outside %s" tag namespace);
    let hash = int_of_string ("0x" ^ hash_hex) in
    if tag = "f" then
      match Family.of_string payload with
      | Some fam -> (hash, key, F fam)
      | None -> failwith "bad family payload"
    else
      let field name s =
        let prefix = name ^ "=" in
        let n = String.length prefix in
        if String.length s >= n && String.sub s 0 n = prefix then
          String.sub s n (String.length s - n)
        else failwith ("missing field " ^ name)
      in
      let e =
        match String.split_on_char ';' payload with
        | [ f; r; b; w ] ->
          {
            conflict_free = field "free" f = "1";
            full_rank = field "rank" r = "1";
            decided_by = field "by" b;
            witness =
              (match field "wit" w with "-" -> None | s -> Some (parse_csv s));
          }
        | _ -> failwith "bad entry payload"
      in
      (hash, key, V e)
  | _ -> failwith "bad record shape"

(* Best-effort key recovery from a record that failed its checksum, so
   the key can be marked for re-verification.  Corruption inside the
   key bytes just yields a string that never matches a lookup, which
   is harmless (the lookup misses anyway). *)
let salvage_key line =
  match String.split_on_char ' ' line with
  | ("v" | "f") :: _hash_hex :: key :: _ -> Some key
  | _ -> None

(* ------------------------------ journal ---------------------------- *)

let fsync_out oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

(* Replay the journal.  Complete lines that fail to parse or checksum
   are quarantined (each record carries its own CRC, and lines resync
   at the next newline, so later records are independently
   trustworthy); an incomplete last line is a torn tail from a crash
   mid-append.  Returns the surviving records (with their raw lines,
   for compaction), the quarantined raw lines, and the torn-tail byte
   count. *)
let replay contents =
  let n = String.length contents in
  let header_end =
    match String.index_opt contents '\n' with
    | Some nl when String.sub contents 0 nl = header -> Some (nl + 1)
    | _ -> None
  in
  match header_end with
  | None -> None
  | Some start ->
    let records = ref [] and bad = ref [] in
    let rec go offset =
      if offset >= n then 0
      else
        match String.index_from_opt contents offset '\n' with
        | None -> n - offset (* torn tail: line without newline *)
        | Some nl -> (
          let line = String.sub contents offset (nl - offset) in
          (match parse_record line with
          | r -> records := (r, line) :: !records
          | exception _ -> bad := line :: !bad);
          go (nl + 1))
    in
    let torn = go start in
    Some (List.rev !records, List.rev !bad, torn)

let quarantine_path path = path ^ ".quarantine"

(* Move the corrupt records into the sidecar and rewrite the journal
   with only the surviving ones (tmp + rename, both fsynced, then the
   directory), so the next open is clean. *)
let compact path records bad =
  let qp = quarantine_path path in
  let qoc = open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 qp in
  List.iter
    (fun line ->
      output_string qoc line;
      output_char qoc '\n')
    bad;
  fsync_out qoc;
  close_out qoc;
  let tmp = path ^ ".tmp" in
  let toc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp in
  output_string toc header;
  output_char toc '\n';
  List.iter
    (fun (_, line) ->
      output_string toc line;
      output_char toc '\n')
    records;
  fsync_out toc;
  close_out toc;
  Sys.rename tmp path;
  Fault.fsync_dir path

let open_ ?(fsync_every = 32) ?snapshot path =
  if fsync_every < 1 then invalid_arg "Store.open_: fsync_every must be >= 1";
  let t0 = Unix.gettimeofday () in
  (* The snapshot opens in O(1) reads; a structurally bad snapshot is
     a warning and a fall-back to plain journal replay, never a
     crash — the journal alone is always sufficient. *)
  let snap =
    match snapshot with
    | Some sp when Sys.file_exists sp -> (
      match Snapshot.open_reader sp with
      | Ok reader -> Some reader
      | Error msg ->
        ignore
          (Obs.Warn.once
             ("server.store.snapshot:" ^ sp)
             (Printf.sprintf "store %s: ignoring unusable snapshot: %s" path msg));
        None)
    | Some _ | None -> None
  in
  let contents =
    if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
    else ""
  in
  let replayed =
    if contents = "" then None
    else
      match replay contents with
      | None -> failwith (Printf.sprintf "Store.open_: %s is not a store journal" path)
      | some -> some
  in
  let t =
    {
      path;
      fsync_every;
      oc = None;
      (* Sized from the replayed record count: growing a string-keyed
         table during the open would re-hash every key. *)
      table =
        Hashtbl.create
          (max 1024 (match replayed with Some (rs, _, _) -> List.length rs | None -> 0));
      quarantined_keys = Hashtbl.create 4;
      lock = Mutex.create ();
      pending = 0;
      hits = 0;
      misses = 0;
      appended = 0;
      loaded = 0;
      f_appended = 0;
      f_loaded = 0;
      dropped_bytes = 0;
      quarantined = 0;
      healed = 0;
      io_errors = 0;
      snap;
      snap_entries = (match snap with Some reader -> Snapshot.entries reader | None -> 0);
      snap_hits = 0;
      snap_corrupt = 0;
      open_ms = 0.;
      provenance =
        (match (replayed, snap) with
        | None, None -> "created"
        | None, Some _ -> "snapshot"
        | Some _, None -> "replay"
        | Some _, Some _ -> "snapshot+tail");
    }
  in
  (match replayed with
  | None ->
    (* O_APPEND, even on the create path: the partial-write rollback
       truncates the file under the channel, and only an append-mode
       fd is guaranteed to land the next record at the new EOF rather
       than at its stale offset (leaving a zero-filled hole). *)
    let oc =
      open_out_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_append; Open_binary ]
        0o644 path
    in
    output_string oc header;
    output_char oc '\n';
    fsync_out oc;
    (* The journal's directory entry must be durable too, or a power
       failure can forget the file the data was synced into. *)
    Fault.fsync_dir path;
    t.oc <- Some oc
  | Some (records, bad, torn) ->
    List.iter
      (fun ((hash, key, r), _) ->
        (* Last record wins: a healed key appends a fresh record after
           its original, and the fresh one is the truth. *)
        if not (Hashtbl.mem t.table key) then begin
          match r with V _ -> t.loaded <- t.loaded + 1 | F _ -> t.f_loaded <- t.f_loaded + 1
        end;
        Hashtbl.replace t.table key (hash, r))
      records;
    List.iter
      (fun line ->
        t.quarantined <- t.quarantined + 1;
        Obs.Metrics.incr m_quarantined;
        match salvage_key line with
        | Some key -> Hashtbl.replace t.quarantined_keys key ()
        | None -> ())
      bad;
    t.dropped_bytes <- torn;
    if bad <> [] then begin
      compact path records bad;
      ignore
        (Obs.Warn.once
           ("server.store.quarantined:" ^ path)
           (Printf.sprintf
              "store %s: quarantined %d corrupt record(s) into %s; keys re-verify on \
               next access"
              path (List.length bad) (quarantine_path path)))
    end
    else if torn > 0 then begin
      (* Truncate the torn tail so the next append starts a clean
         frame instead of extending a partial one — and fsync the
         directory so the truncation itself survives power loss. *)
      Unix.truncate path (String.length contents - torn);
      Fault.fsync_dir path
    end;
    if torn > 0 then
      ignore
        (Obs.Warn.once
           ("server.store.recovered:" ^ path)
           (Printf.sprintf
              "store %s: dropped %d bytes of torn journal tail (crash recovery)" path
              torn));
    t.oc <- Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path));
  t.open_ms <- 1000. *. (Unix.gettimeofday () -. t0);
  Obs.Metrics.observe h_open_ms t.open_ms;
  t

let oc_exn t =
  match t.oc with Some oc -> oc | None -> failwith "Store: used after close"

(* The one lookup, under the lock.  Memory holds the journal tail, so
   a tail record shadows the snapshot's; only a memory miss reads the
   snapshot, under the content hash [hash ()] computes, and a record
   found there is promoted into memory.  Every located snapshot line
   is re-validated against its own CRC (the index is only a locator):
   a line that fails to parse is counted corrupt and skipped, one
   with another key is a plain hash collision.  A quarantined key
   misses. *)
let lookup t ~kind ~hash key =
  if Hashtbl.mem t.quarantined_keys key then None
  else
    match Hashtbl.find_opt t.table key with
    | Some (_, r) -> Some r
    | None -> (
      match t.snap with
      | None -> None
      | Some sr ->
        let hash = hash () in
        let rec pick = function
          | [] -> None
          | line :: rest -> (
            match parse_record line with
            | h, k, r when h = hash && k = key ->
              t.snap_hits <- t.snap_hits + 1;
              Obs.Metrics.incr m_snap_hits;
              Hashtbl.replace t.table key (hash, r);
              Some r
            | _ -> pick rest
            | exception _ ->
              t.snap_corrupt <- t.snap_corrupt + 1;
              Obs.Metrics.incr m_snap_corrupt;
              pick rest)
        in
        pick (Snapshot.find_all sr ~kind ~hash))

let find t ~mu tm =
  let key = key_string ~mu tm in
  Mutex.protect t.lock (fun () ->
      match lookup t ~kind:'v' ~hash:(fun () -> key_hash ~mu tm) key with
      | Some (V e) ->
        t.hits <- t.hits + 1;
        Obs.Metrics.incr m_hits;
        Some e
      | Some (F _) | None ->
        t.misses <- t.misses + 1;
        Obs.Metrics.incr m_misses;
        None)

let find_family t tm =
  let key = family_key_string tm in
  Mutex.protect t.lock (fun () ->
      match lookup t ~kind:'f' ~hash:(fun () -> family_hash tm) key with
      | Some (F fam) -> Some fam
      | Some (V _) | None -> None)

(* Append one record, honouring the [store.write] (torn append) and
   [store.fsync] injection sites.  A torn append is rolled back by
   truncating to the pre-write length, so the journal never dwells in
   a torn state because of an injected fault — the caller sees
   [Fault.Injected] and the entry is simply not persisted yet. *)
let append_line t line =
  let oc = oc_exn t in
  let line = line ^ "\n" in
  (match Fault.partial_write "store.write" (String.length line) with
  | Some n ->
    t.io_errors <- t.io_errors + 1;
    Obs.Metrics.incr m_io_errors;
    (try
       flush oc;
       let fd = Unix.descr_of_out_channel oc in
       let size = (Unix.fstat fd).Unix.st_size in
       output_substring oc line 0 n;
       flush oc;
       Unix.ftruncate fd size
     with Sys_error _ | Unix.Unix_error _ -> ());
    raise (Fault.Injected "store.write")
  | None ->
    output_string oc line;
    flush oc);
  t.pending <- t.pending + 1;
  if t.pending >= t.fsync_every then begin
    (* Gray failure: a fired [store.fsync_stall] delays the sync (and
       the caller) by the plan's delay — the classic stalled-fsync
       brownout — without failing anything.  Ambient, never logged. *)
    Fault.stall "store.fsync_stall";
    if Fault.should_fail "store.fsync" then begin
      (* Keep [pending] so the next append retries the fsync; the data
         is in the OS already (flushed), only durability is delayed. *)
      t.io_errors <- t.io_errors + 1;
      Obs.Metrics.incr m_io_errors
    end
    else begin
      fsync_out oc;
      t.pending <- 0
    end
  end

let same a b =
  match (a, b) with
  | V a, V b -> a = b
  | F a, F b -> Family.to_string a = Family.to_string b
  | V _, F _ | F _, V _ -> false

(* The one insert, under the lock.  A record equal to the one memory
   holds appends nothing (answers are deterministic); any other is
   appended under the content hash [hash ()] computes and replaces
   it.  Either way the key's quarantine mark is cleared: the fresh
   record re-verified it. *)
let insert t ~hash key r =
  (match Hashtbl.find_opt t.table key with
  | Some (_, r0) when same r0 r -> ()
  | _ ->
    let hash = hash () in
    append_line t (record_line hash key r);
    (match r with
    | V _ -> t.appended <- t.appended + 1
    | F _ -> t.f_appended <- t.f_appended + 1);
    Hashtbl.replace t.table key (hash, r));
  if Hashtbl.mem t.quarantined_keys key then begin
    Hashtbl.remove t.quarantined_keys key;
    t.healed <- t.healed + 1;
    Obs.Metrics.incr m_healed
  end

let add t ~mu tm e =
  let key = key_string ~mu tm in
  Mutex.protect t.lock (fun () -> insert t ~hash:(fun () -> key_hash ~mu tm) key (V e))

let add_family t tm fam =
  let key = family_key_string tm in
  Mutex.protect t.lock (fun () -> insert t ~hash:(fun () -> family_hash tm) key (F fam))

(* Apply one raw journal record line shipped from another store (the
   [ship] op): validate it exactly as replay would, then insert it, so
   the follower's journal is self-contained.  Idempotent — a
   re-shipped record equal to the current one appends nothing, which
   makes the shipper's resume-from-watermark safe.  Append faults
   ([store.write]/[store.fsync]) propagate as usual. *)
let ingest_line t line =
  match parse_record line with
  | exception Failure msg -> Error msg
  | exception _ -> Error "unparsable record"
  | hash, key, r -> Mutex.protect t.lock (fun () -> insert t ~hash:(fun () -> hash) key r; Ok ())

(* Everything the store can currently serve, as (kind, hash, key,
   canonical line) records: the snapshot's records (swept once),
   overlaid by memory — which holds the journal tail plus everything
   promoted from the snapshot — minus quarantined keys.  Caller holds
   the lock. *)
let all_records t =
  let acc : (string, char * int * string * string) Hashtbl.t = Hashtbl.create 1024 in
  (match t.snap with
  | None -> ()
  | Some sr ->
    Snapshot.iter_lines sr (fun line ->
        match parse_record line with
        | hash, key, r -> Hashtbl.replace acc key (tag r, hash, key, line)
        | exception _ -> ()));
  Hashtbl.iter
    (fun key (hash, r) -> Hashtbl.replace acc key (tag r, hash, key, record_line hash key r))
    t.table;
  Hashtbl.iter (fun key () -> Hashtbl.remove acc key) t.quarantined_keys;
  Hashtbl.fold (fun _ r rs -> r :: rs) acc []

let write_snapshot t path = Mutex.protect t.lock (fun () -> Snapshot.write path (all_records t))

(* Snapshot-then-truncate: after this, the store opens as snapshot +
   empty tail in O(1) reads.  The snapshot is durable (fsynced, tmp +
   rename) before the journal is reset, so a crash between the two
   steps leaves a snapshot plus the full journal — records are then
   merely present twice, and replay's last-wins handles it. *)
let compact_to_snapshot t ~snapshot =
  Mutex.protect t.lock (fun () ->
      let count = Snapshot.write snapshot (all_records t) in
      let oc = oc_exn t in
      fsync_out oc;
      close_out oc;
      t.oc <- None;
      let tmp = t.path ^ ".tmp" in
      let toc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
      in
      output_string toc header;
      output_char toc '\n';
      fsync_out toc;
      close_out toc;
      Sys.rename tmp t.path;
      Fault.fsync_dir t.path;
      t.oc <-
        Some (open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path);
      t.pending <- 0;
      Option.iter Snapshot.close t.snap;
      (match Snapshot.open_reader snapshot with
      | Ok reader ->
        t.snap <- Some reader;
        t.snap_entries <- Snapshot.entries reader;
        t.provenance <- "snapshot+tail"
      | Error msg ->
        t.snap <- None;
        t.snap_entries <- 0;
        ignore
          (Obs.Warn.once
             ("server.store.snapshot:" ^ snapshot)
             (Printf.sprintf "store %s: freshly written snapshot unreadable: %s" t.path
                msg)));
      count)

let flush t =
  Mutex.protect t.lock (fun () ->
      fsync_out (oc_exn t);
      t.pending <- 0)

let close t =
  Mutex.protect t.lock (fun () ->
      let oc = oc_exn t in
      fsync_out oc;
      close_out oc;
      t.oc <- None;
      (* Fold the reader's corruption tally into the sticky counter so
         stats queried after close (the daemon's drained report) keep
         the full picture; snap_entries is already sticky. *)
      Option.iter
        (fun sr -> t.snap_corrupt <- t.snap_corrupt + Snapshot.corrupt_entries sr)
        t.snap;
      Option.iter Snapshot.close t.snap;
      t.snap <- None)

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries, families =
        Hashtbl.fold
          (fun _ (_, r) (v, f) -> match r with V _ -> (v + 1, f) | F _ -> (v, f + 1))
          t.table (0, 0)
      in
      {
        entries;
        hits = t.hits;
        misses = t.misses;
        appended = t.appended;
        loaded = t.loaded;
        families;
        f_appended = t.f_appended;
        f_loaded = t.f_loaded;
        dropped_bytes = t.dropped_bytes;
        quarantined = t.quarantined;
        healed = t.healed;
        io_errors = t.io_errors;
        snap_entries = t.snap_entries;
        snap_hits = t.snap_hits;
        snap_corrupt =
          (t.snap_corrupt
          + match t.snap with Some sr -> Snapshot.corrupt_entries sr | None -> 0);
        open_ms = t.open_ms;
        provenance = t.provenance;
      })

let entry_of_verdict (v : Analysis.verdict) =
  {
    conflict_free = v.Analysis.conflict_free;
    full_rank = v.Analysis.full_rank;
    decided_by = Analysis.decided_by_name v.Analysis.decided_by;
    witness = Option.map Intvec.to_ints v.Analysis.witness;
  }
