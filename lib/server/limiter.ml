type t = {
  min_limit : int;
  max_limit : int;
  target_ms : float;
  lock : Mutex.t;
  mutable limit : float;
  mutable inflight : int;
  mutable rejected : int;
  mutable decreases : int;
  (* Completions since the last multiplicative decrease; gating
     decreases on a full window of ~[limit] completions makes the
     limiter react once per "round trip" of admitted work instead of
     collapsing to the floor on a single slow burst. *)
  mutable since_decrease : int;
}

let md_factor = 0.7

let create ?(min_limit = 1) ?(target_ms = 250.) ~max_limit () =
  if min_limit < 1 then invalid_arg "Limiter.create: min_limit must be >= 1";
  if max_limit < min_limit then
    invalid_arg "Limiter.create: max_limit must be >= min_limit";
  if not (target_ms > 0.) then
    invalid_arg "Limiter.create: target_ms must be > 0";
  {
    min_limit;
    max_limit;
    target_ms;
    lock = Mutex.create ();
    (* Optimistic start: behave exactly like the old static cap until
       latency evidence says otherwise. *)
    limit = float_of_int max_limit;
    inflight = 0;
    rejected = 0;
    decreases = 0;
    since_decrease = max_int;
  }

let try_admit t =
  Mutex.lock t.lock;
  let ok = t.inflight < int_of_float t.limit in
  if ok then t.inflight <- t.inflight + 1 else t.rejected <- t.rejected + 1;
  Mutex.unlock t.lock;
  ok

let g_limit = Obs.Metrics.gauge "admission.limit"

let release t ~latency_ms =
  Mutex.lock t.lock;
  if t.inflight > 0 then t.inflight <- t.inflight - 1;
  if t.since_decrease < max_int then t.since_decrease <- t.since_decrease + 1;
  if latency_ms > t.target_ms then begin
    if t.since_decrease >= max 1 (int_of_float t.limit) then begin
      t.limit <- Float.max (float_of_int t.min_limit) (t.limit *. md_factor);
      t.decreases <- t.decreases + 1;
      t.since_decrease <- 0
    end
  end
  else
    t.limit <-
      Float.min (float_of_int t.max_limit) (t.limit +. (1. /. Float.max 1. t.limit));
  let l = t.limit in
  Mutex.unlock t.lock;
  Obs.Metrics.set_gauge g_limit l

let limit t =
  Mutex.lock t.lock;
  let l = int_of_float t.limit in
  Mutex.unlock t.lock;
  l

let inflight t =
  Mutex.lock t.lock;
  let n = t.inflight in
  Mutex.unlock t.lock;
  n

let rejected t = t.rejected
let decreases t = t.decreases
