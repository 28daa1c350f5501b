type 'a t = {
  queue : 'a Admission.t;
  handle : 'a -> unit;
  lock : Mutex.t;
  mutable started : int;
  mutable domains : unit Domain.t list;
  deaths : int Atomic.t;
}

let m_errors = Obs.Metrics.counter "server.worker_errors"
let m_deaths = Obs.Metrics.counter "server.worker_deaths"

let create ~queue ~handle =
  {
    queue;
    handle;
    lock = Mutex.create ();
    started = 0;
    domains = [];
    deaths = Atomic.make 0;
  }

(* Spawns under the lock, so [join] always sees the full domain list.
   [false] when the runtime refuses another domain (its domain limit). *)
let spawn t f =
  Mutex.protect t.lock (fun () ->
      match Domain.spawn f with
      | d ->
        t.domains <- d :: t.domains;
        true
      | exception _ -> false)

let serve t x =
  try t.handle x
  with exn ->
    Obs.Metrics.incr m_errors;
    ignore
      (Obs.Warn.once "server.worker_error"
         (Printf.sprintf "server worker: uncaught %s" (Printexc.to_string exn)))

(* A worker consults the [batcher.worker] kill site once per *popped
   request* — never per wake-up or per blocked wait, which would make
   the consult count (and so the seeded fault log) depend on
   scheduling and on when the plan is disarmed.  The stream of
   decisions is ordered with the request stream.  When the site fires,
   the worker dies with the request in hand; its replacement domain
   serves that request *first*, so an accepted request is never lost
   to supervision.  A worker whose replacement cannot be spawned
   serves the request itself. *)
let rec worker ?carry t () =
  Option.iter (serve t) carry;
  match Admission.pop t.queue with
  | None -> ()
  | Some x ->
    (* The gray [worker.stall] site shares the once-per-popped-request
       cadence: a fired consult stalls this worker by the plan's delay
       — a GC-pause / saturated-worker brownout.  Ambient: applied,
       never logged. *)
    Fault.stall "worker.stall";
    if Fault.should_fail "batcher.worker" && spawn t (worker ~carry:x t) then begin
      Obs.Metrics.incr m_deaths;
      Atomic.incr t.deaths;
      ignore
        (Obs.Warn.once "server.worker_death"
           "server worker: killed by fault plan, respawned")
    end
    else begin
      serve t x;
      worker t ()
    end

let start t n =
  while t.started < n && spawn t (worker t) do
    t.started <- t.started + 1
  done;
  t.started > 0

(* The domain list grows while we join (respawns), so keep popping
   until it is empty rather than iterating a snapshot. *)
let rec join t =
  match
    Mutex.protect t.lock (fun () ->
        match t.domains with
        | [] -> None
        | d :: rest ->
          t.domains <- rest;
          Some d)
  with
  | None -> ()
  | Some d ->
    Domain.join d;
    join t

let deaths t = Atomic.get t.deaths
