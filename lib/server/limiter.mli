(** AIMD adaptive concurrency limiter for daemon admission.

    Replaces the static admission cap: the number of requests admitted
    into the daemon (queued or being computed) is bounded by a limit
    that {e adapts} to observed request latency, classic
    additive-increase / multiplicative-decrease:

    - every completion at or under [target_ms] nudges the limit up by
      [1/limit] (≈ +1 per window of [limit] completions);
    - a completion over [target_ms] cuts the limit to [0.7 ×], at most
      once per window of [limit] completions, so one slow burst costs
      one decrease, not a collapse;
    - the limit is clamped to [[min_limit, max_limit]] and starts at
      [max_limit] (optimistic: identical to the old static cap until
      latency evidence arrives).

    The adaptation signal is completion latency measured from
    admission (so queue wait counts — a growing queue {e is} the
    overload), which needs no extra clock reads on the hot path.  The
    current limit is exported as the [admission.limit] gauge.

    Deliberately clock-free: windows are counted in completions, never
    wall time, so unit tests drive it deterministically.  All
    operations are thread-safe. *)

type t

val create : ?min_limit:int -> ?target_ms:float -> max_limit:int -> unit -> t
(** [min_limit] defaults to [1]; [target_ms] to [250.].
    @raise Invalid_argument when [min_limit < 1],
    [max_limit < min_limit], or [target_ms <= 0]. *)

val try_admit : t -> bool
(** Admit one request if current inflight < limit (counted toward
    inflight on success).  Callers must pair every [true] with exactly
    one {!release}. *)

val release : t -> latency_ms:float -> unit
(** Complete one admitted request, feeding its admission-to-completion
    latency into the AIMD loop. *)

val limit : t -> int
(** The current adaptive limit (floor of the fractional internal
    limit). *)

val inflight : t -> int
val rejected : t -> int

val decreases : t -> int
(** How many multiplicative decreases have fired. *)
