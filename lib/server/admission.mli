(** Admission control: the request queue between the event loop and
    the worker domains.

    The queue has no capacity of its own: the daemon's {!Limiter}
    already bounds queued plus running requests.  Producers never
    block — {!try_push} on a closed queue returns [false] and the
    caller refuses the request.  Consumers block in {!pop} until work
    or {!close}, and take one request at a time.

    All operations are safe from any thread or domain. *)

type 'a t

val create : unit -> 'a t

val try_push : 'a t -> 'a -> bool
(** Enqueue, or return [false] when the queue is closed. *)

val pop : 'a t -> 'a option
(** Block until the queue is non-empty, then dequeue its head.  [None]
    once the queue is closed and drained. *)

val close : 'a t -> unit
(** Reject further pushes and wake all blocked consumers; already
    queued items are still delivered. *)

val abort : 'a t -> 'a list
(** SIGKILL-grade {!close}: additionally discard everything still
    queued, returning the dropped items so the caller can release
    bookkeeping (admission slots, inflight registration).  Consumers
    see an empty closed queue. *)

val length : 'a t -> int
