(** The worker domains draining the admission queue.

    Each worker is an OCaml domain that loops {!Admission.pop} →
    [handle], one request at a time, and exits when the queue is
    closed and drained; the event loop's domain never runs [handle].
    {!create} spawns nothing: {!start} spawns workers as the caller
    admits requests.  Exceptions escaping [handle] are caught, counted
    on [server.worker_errors] and logged once — a poisoned request
    must not kill its worker.

    Supervision: with an armed {!Fault.Plan}, the [batcher.worker]
    site is consulted exactly once per {e popped request} — never per
    wake-up or blocked wait, so the consult sequence is ordered with
    the request stream and a seeded plan replays identically.  A fired
    fault kills the worker with the request in hand; the replacement
    domain it spawns (counted by the [server.worker_deaths] metric and
    {!deaths}) serves that request first, so no accepted request is
    ever lost to a worker death. *)

type 'a t

val create : queue:'a Admission.t -> handle:('a -> unit) -> 'a t

val start : 'a t -> int -> bool
(** [start t n] spawns workers until [n] have started (nothing when
    [n] already have) and returns whether any worker runs.  At the
    runtime's domain limit fewer start, and while the runtime refuses
    every one it returns [false]: the caller must not queue work that
    no worker would pop.  Called from one thread (the daemon's event
    loop). *)

val join : 'a t -> unit
(** Wait for every worker domain — including respawned ones — to exit
    (callers {!Admission.close} the queue first). *)

val deaths : 'a t -> int
(** Workers killed by the fault plan (each one respawned). *)
