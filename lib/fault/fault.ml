exception Injected of string

(* Cheap, stable across platforms and byte-order-free: plenty of mixing
   for a fire/don't-fire decision, a ring point or a CRC that detects a
   torn write. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF) s;
  !h

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

module Plan = struct
  type event = { site : string; seq : int; action : string }

  let site_catalogue =
    [
      ("store.write", "io");
      ("store.fsync", "io");
      ("daemon.accept", "conn");
      ("conn.read", "conn");
      ("conn.write", "conn");
      ("conn.drop", "conn");
      ("batcher.worker", "worker");
      ("shard.kill", "cluster");
      ("route.forward", "cluster");
      ("conn.slow", "latency");
      ("store.fsync_stall", "latency");
      ("worker.stall", "latency");
    ]

  let classes = [ "io"; "conn"; "worker"; "cluster"; "latency" ]

  type site_state = { name : string; enabled : bool; count : int Atomic.t }

  type t = {
    seed : int;
    rate : float;
    delay_ms : int;
    max_faults : int option;
    sites : site_state array;
    injected : int Atomic.t;
    delays : int Atomic.t;
    log : event list ref;
    log_lock : Mutex.t;
  }

  let make ?(rate = 0.1) ?(delay_ms = 25) ?max_faults ~seed ~classes:cls () =
    if not (rate >= 0. && rate <= 1.) then
      invalid_arg "Fault.Plan.make: rate must be in [0, 1]";
    if delay_ms < 0 then invalid_arg "Fault.Plan.make: delay_ms must be >= 0";
    List.iter
      (fun c ->
        if not (List.mem c classes) then
          invalid_arg ("Fault.Plan.make: unknown fault class " ^ c))
      cls;
    {
      seed;
      rate;
      delay_ms;
      max_faults;
      sites =
        Array.of_list
          (List.map
             (fun (name, klass) ->
               { name; enabled = List.mem klass cls; count = Atomic.make 0 })
             site_catalogue);
      injected = Atomic.make 0;
      delays = Atomic.make 0;
      log = ref [];
      log_lock = Mutex.create ();
    }

  let record t site seq action =
    Mutex.lock t.log_lock;
    t.log := { site; seq; action } :: !(t.log);
    Mutex.unlock t.log_lock

  (* The whole point: firing is a pure function of (seed, site, k), so
     the k-th consult of a site gives the same answer in every run, no
     matter how threads interleave. *)
  let roll t site k salt = fnv1a (Printf.sprintf "%d:%s:%d:%s" t.seed site k salt)

  let decide t site k =
    float_of_int (roll t site k "fire" mod 100_000) < t.rate *. 100_000.

  let find_site t name =
    let n = Array.length t.sites in
    let rec go i =
      if i >= n then None
      else if t.sites.(i).name = name then Some t.sites.(i)
      else go (i + 1)
    in
    go 0

  let events t =
    Mutex.lock t.log_lock;
    let l = !(t.log) in
    Mutex.unlock t.log_lock;
    List.sort
      (fun a b ->
        match compare a.site b.site with 0 -> compare a.seq b.seq | c -> c)
      l

  let log_lines t =
    List.map (fun e -> Printf.sprintf "%s#%d %s" e.site e.seq e.action) (events t)

  let fingerprint t = Printf.sprintf "%08x" (fnv1a (String.concat "\n" (log_lines t)))
  let faults_injected t = Atomic.get t.injected
  let delays_injected t = Atomic.get t.delays

  let current : t option Atomic.t = Atomic.make None

  let arm p =
    Atomic.set current (Some p);
    (* Latency sites are ambient: the only logged event is this
       arm-time record of the stall magnitude, which is a pure function
       of the plan's configuration. *)
    List.iter
      (fun (name, klass) ->
        if klass = "latency" then
          match find_site p name with
          | Some s when s.enabled ->
            record p name 0 (Printf.sprintf "delay=%dms" p.delay_ms)
          | _ -> ())
      site_catalogue

  let disarm () = Atomic.set current None
  let armed () = Atomic.get current <> None
end

(* One consult: bump the site's counter, apply the pure decision, and
   charge the plan's fault budget when it fires. *)
let consult name =
  match Atomic.get Plan.current with
  | None -> None
  | Some p -> (
    match Plan.find_site p name with
    | None -> None
    | Some s ->
      if not s.Plan.enabled then None
      else
        let k = Atomic.fetch_and_add s.Plan.count 1 + 1 in
        let left =
          match p.Plan.max_faults with
          | None -> true
          | Some m -> Atomic.get p.Plan.injected < m
        in
        if left && Plan.decide p name k then begin
          Atomic.incr p.Plan.injected;
          Some (p, k)
        end
        else None)

let should_fail name =
  match consult name with
  | None -> false
  | Some (p, k) ->
    Plan.record p name k "fail";
    true

let partial_write name len =
  match consult name with
  | None -> None
  | Some (p, k) ->
    let n = if len <= 1 then 0 else Plan.roll p name k "len" mod len in
    Plan.record p name k (Printf.sprintf "partial:%d/%d" n len);
    Some n

(* Latency faults are ambient: the firing decision stays a pure
   function of (seed, site, consult#), but firings are neither logged
   per event nor charged against [max_faults] — hedged re-issues and
   stalled-loop interleavings make per-site consult attribution
   scheduling-dependent across daemons, and the log must stay
   canonical. *)
let delay_ms name =
  match Atomic.get Plan.current with
  | None -> None
  | Some p -> (
    match Plan.find_site p name with
    | Some s when s.Plan.enabled ->
      let k = Atomic.fetch_and_add s.Plan.count 1 + 1 in
      if Plan.decide p name k then begin
        Atomic.incr p.Plan.delays;
        Some p.Plan.delay_ms
      end
      else None
    | _ -> None)

let stall name =
  match delay_ms name with
  | None -> ()
  | Some ms -> if ms > 0 then Thread.delay (float_of_int ms /. 1000.)
